import math
import random
from fractions import Fraction

import pytest

from twistloop.exact import BigradedSeries, product_over_degrees, solomon_series
from twistloop.report import MAX_TRUNCATION
from twistloop.rootsys import CartanType, degrees
from twistloop.oracle import (_exponent_tuples, _symmetric_action, _tensor_image,
                              charpoly, charpoly_from_power_traces,
                              collapse_to_cohomological, identity_matrix, integer_kernel,
                              invert, kernel_basis, mat_mul, mat_vec, matrix, rank,
                              super_molien_from_buckets)

from test_acceptance import expected_series

I2 = identity_matrix(2)
DIAG = matrix([[1, 0], [0, -1]])
# companion matrix of x^2 - x - 1
COMPANION = matrix([[0, 1], [1, 1]])
# order-3 rotation: Coxeter element of the rank-2 chain type over its root basis
ROT3 = matrix([[0, -1], [1, -1]])


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b))


def mat_pow(a, k):
    result = identity_matrix(len(a))
    for _ in range(k):
        result = mat_mul(result, a)
    return result


def expansion(cp, truncation):
    """det(1 + s M) / det(1 - t M) for any M with charpoly cp: the
    super-Molien average over a group of order 1."""
    return super_molien_from_buckets({tuple(cp): 1}, 1, truncation)


def dense_mul(p, q, nterms):
    """Product of two ascending integer polynomials, truncated."""
    out = [0] * (nterms + 1)
    for i, a in enumerate(p[:nterms + 1]):
        for j, b in enumerate(q[:nterms + 1 - i]):
            out[i + j] += a * b
    return out


def dense_inverse(den, nterms):
    """Power-series reciprocal of an integer polynomial with constant term 1."""
    assert den[0] == 1
    inv = [1]
    for k in range(1, nterms + 1):
        inv.append(-sum(den[i] * inv[k - i] for i in range(1, min(k, len(den) - 1) + 1)))
    return inv


def poly_det(m):
    """Cofactor determinant of a matrix whose entries are ascending integer
    polynomials of degree <= 1, as len(m) + 1 coefficients."""
    n = len(m)
    if n == 0:
        return [1]
    total = [0] * (n + 1)
    for j, entry in enumerate(m[0]):
        minor = poly_det([row[:j] + row[j + 1:] for row in m[1:]])
        for k, c in enumerate(dense_mul(entry, minor, n)):
            total[k] += (-1) ** j * c
    return total


def series_mul(s, t):
    trunc = min(s.truncation, t.truncation)
    out = {}
    for (a1, b1), c1 in s.coefficients.items():
        for (a2, b2), c2 in t.coefficients.items():
            out[(a1 + a2, b1 + b2)] = out.get((a1 + a2, b1 + b2), 0) + c1 * c2
    return BigradedSeries(trunc, out)


class TestMatMul:
    def test_identity(self):
        assert mat_mul(I2, I2) == I2

    def test_involution_squares_to_identity(self):
        assert mat_mul(DIAG, DIAG) == I2

    def test_companion_squared(self):
        # hand multiplication: rows (1,1) and (1,2)
        assert mat_mul(COMPANION, COMPANION) == ((1, 1), (1, 2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(I2, matrix([[1, 2, 3]]))


class TestCharpoly:
    def test_identity(self):
        assert charpoly(I2) == (1, -2, 1)

    def test_reflection(self):
        assert charpoly(DIAG) == (-1, 0, 1)

    def test_order_three_rotation(self):
        assert charpoly(ROT3) == (1, 1, 1)
        # Cayley-Hamilton by hand: M^2 + M + I = 0
        zero = ((0, 0), (0, 0))
        assert mat_sub(mat_sub(mat_mul(ROT3, ROT3), mat_sub(zero, ROT3)),
                       mat_sub(zero, I2)) == zero

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            charpoly(matrix([[1, 2, 3], [4, 5, 6]]))

    def test_cayley_hamilton_random(self):
        rng = random.Random(20240811)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                         for _ in range(n)] for _ in range(n)])
            cp = charpoly(m)
            acc = ((0,) * n,) * n
            power = identity_matrix(n)
            for c in cp:
                acc = tuple(tuple(a + c * p for a, p in zip(ar, pr))
                            for ar, pr in zip(acc, power))
                power = mat_mul(power, m)
            assert acc == ((0,) * n,) * n

    def test_traces_route_agrees(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 4)
            m = matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            traces = [sum(mat_pow(m, k)[i][i] for i in range(n)) for k in range(1, n + 1)]
            cp = charpoly_from_power_traces(traces, n)
            assert cp == charpoly(m)
            assert all(type(c) is int for c in cp)

    def test_traces_of_no_integer_matrix_are_refused(self):
        # e_2 = (p_1^2 - p_2) / 2 = 1/2: Newton's division is inexact
        with pytest.raises(ValueError, match="not those of an integer matrix"):
            charpoly_from_power_traces([1, 0], 2)
        with pytest.raises(ValueError, match="need traces"):
            charpoly_from_power_traces([1], 2)


class TestDetsFromCharpoly:
    """det(1 + s M) and det(1 - t M) read off charpoly(M), as the
    one-bucket expansion det(1 + s M) / det(1 - t M)."""

    def test_one_dim_identity(self):
        # (1 + s) / (1 - t)
        assert expansion((-1, 1), 2).coefficients == {(0, 0): 1, (1, 0): 1, (0, 1): 1}

    def test_reflection(self):
        # (1 - s^2) / (1 - t^2)
        assert expansion((-1, 0, 1), 4).coefficients == {(0, 0): 1, (2, 0): -1, (0, 2): 1}

    def test_rotation(self):
        # (1 - s + s^2) / (1 + t + t^2), and 1 / (1 + t + t^2) = (1 - t) / (1 - t^3)
        assert expansion((1, 1, 1), 4).coefficients == {
            (0, 0): 1, (0, 1): -1, (1, 0): -1, (1, 1): 1, (2, 0): 1, (2, 1): -1}

    def test_against_cofactor_determinants(self):
        # independent check: det(1 + s M) and det(1 - t M) multiplied out by
        # cofactors over polynomial entries; the expansion times the second
        # is the first, through the truncation
        rng = random.Random(99)
        trunc = 15
        for _ in range(25):
            n = rng.randint(1, 4)
            m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            plus = poly_det([[[int(i == j), m[i][j]] for j in range(n)] for i in range(n)])
            minus = poly_det([[[int(i == j), -m[i][j]] for j in range(n)] for i in range(n)])
            den = BigradedSeries(trunc, {(0, b): c for b, c in enumerate(minus)})
            num = BigradedSeries(trunc, {(a, 0): c for a, c in enumerate(plus)})
            assert series_mul(expansion(charpoly(matrix(m)), trunc), den) == num

    def test_requires_monic(self):
        with pytest.raises(ValueError, match="monic"):
            expansion((1, 2), 5)


class TestSeries:
    def test_hand_expansion_truncated_at_four(self):
        s = expansion((-1, 1), 4)
        assert s.coefficients == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1, (0, 2): 1}

    def test_multiply_by_inverse_pair(self):
        # a 3-cycle's (1 + s^3) / (1 - t^3), times 1 - t and then the line's
        # (1 + s) / (1 - t), is multiplied by 1 + s
        trunc = 12
        s = expansion((-1, 0, 0, 1), trunc)
        one_minus = BigradedSeries(trunc, {(0, 0): 1, (0, 1): -1})
        inverse = expansion((-1, 1), trunc)
        one_plus = BigradedSeries(trunc, {(0, 0): 1, (1, 0): 1})
        assert series_mul(series_mul(s, one_minus), inverse) == series_mul(s, one_plus)


class TestRationalFunctionSeries:
    def test_all_ones(self):
        s = expansion((-1, 1), 9)
        for a in (0, 1):
            for b in range((9 - a) // 2 + 1):
                assert s[(a, b)] == 1

    def test_geometric_with_signs(self):
        s = expansion((-1, 0, 1), 12)
        for b in range(7):
            assert s[(0, b)] == (1 if b % 2 == 0 else 0)
            if 2 + 2 * b <= 12:
                assert s[(2, b)] == (-1 if b % 2 == 0 else 0)

    def test_binomial_row(self):
        # (1 + s)^2 / (1 - t)^2
        s = expansion((1, -2, 1), 20)
        for a in range(3):
            for b in range((20 - a) // 2 + 1):
                assert s[(a, b)] == math.comb(2, a) * (b + 1)

    def test_zero_constant_term_rejected(self):
        # det(1 - t M) has constant term cp[n], which a monic cp makes 1
        with pytest.raises(ValueError, match="monic"):
            expansion((1, 0), 5)


class TestUnivariateHelpers:
    def test_poly_inverse_roundtrip(self):
        # row s^0 of the expansion is 1 / det(1 - t M), whose coefficients
        # are cp reversed; so is the dense reciprocal the tests below use
        den = [1, -1, 0, 2]
        s = expansion(den[::-1], 30)
        inv = [s[(0, b)] for b in range(16)]
        assert dense_mul(den, inv, 15) == [1] + [0] * 15
        assert dense_inverse(den, 15) == inv

    def test_product_over_degrees_single(self):
        # (1+u^3)/(1-u^4): coefficient 1 exactly in degrees 0,3,4,7,8,11,...
        s = product_over_degrees([2], 12)
        assert s == (1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1)

    @pytest.mark.parametrize("degs", [(2,), (2, 6), (2, 4, 4, 6), (2, 5, 6, 8, 9, 12),
                                      (2, 8, 12, 14, 18, 20, 24, 30), (1, 3)])
    def test_strided_product_matches_dense_expansion(self, degs):
        # the dense route: multiply the numerator and denominator
        # polynomials out, then multiply by the reciprocal series
        trunc = 150
        num, den = [1], [1]
        for d in degs:
            num = dense_mul(num, [1] + [0] * (2 * d - 2) + [1], trunc)
            den = dense_mul(den, [1] + [0] * (2 * d - 1) + [-1], trunc)
        dense = dense_mul(num, dense_inverse(den, trunc), trunc)
        assert product_over_degrees(degs, trunc) == tuple(dense)

    def test_solomon_series_refuses_a_negative_truncation(self):
        assert solomon_series((2,), 0) == BigradedSeries(0, {(0, 0): 1})
        with pytest.raises(ValueError, match="^truncation must be non-negative$"):
            solomon_series((2,), -1)

    @pytest.mark.parametrize("degs", [(2,), (2, 6), (2, 4, 4, 6), (2, 5, 6, 8, 9, 12)])
    def test_solomon_series_matches_the_rational_expansion(self, degs):
        # prod (1 + s t^(d-1)) / (1 - t^d) multiplied out as one rational
        # function num(s, t) / den(t), row by row in s
        trunc = 61
        num = {(0, 0): 1}
        den = [1]
        for d in degs:
            nxt = dict(num)
            for (a, b), c in num.items():
                nxt[(a + 1, b + d - 1)] = nxt.get((a + 1, b + d - 1), 0) + c
            num = nxt
            den = dense_mul(den, [1] + [0] * (d - 1) + [-1], trunc)
        inv = dense_inverse(den, trunc)
        expanded = {}
        for (a, b0), c in num.items():
            for b in range(b0, trunc // 2 + 1):
                expanded[(a, b)] = expanded.get((a, b), 0) + c * inv[b - b0]
        s = solomon_series(degs, trunc)
        assert s == BigradedSeries(trunc, expanded)
        assert collapse_to_cohomological(s) == product_over_degrees(degs, trunc)


SERIES_TABLES = ([("A", r) for r in range(1, 17)] + [("B", r) for r in range(1, 13)] +
                 [("C", r) for r in range(1, 13)] + [("D", r) for r in range(2, 13)] +
                 [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
SERIES_DEGREES = {**{f"{f}{r}": degrees(CartanType(f, r)) for f, r in SERIES_TABLES},
                  "(1, 3)": (1, 3), "(2, 4, 4, 6)": (2, 4, 4, 6)}


@pytest.mark.parametrize("degs", SERIES_DEGREES.values(), ids=SERIES_DEGREES.keys())
def test_strided_product_matches_the_coin_change_expansion(degs):
    # every truncation to 130 and a few deep ones: below the smallest degree,
    # odd and even, and on both sides of d^2 = truncation // 2 + 1, where
    # residue-class sums give way to block steps; a truncation is a prefix
    full = expected_series(degs, 1000)
    for trunc in (*range(131), 599, 600, 601, 1000):
        assert product_over_degrees(degs, trunc) == full[:trunc + 1], trunc


def test_strided_product_at_the_largest_truncation():
    degs = degrees(CartanType("A", 80))
    assert product_over_degrees(degs, MAX_TRUNCATION) == expected_series(degs, MAX_TRUNCATION)


class TestElimination:
    def test_kernel_of_singular(self):
        m = matrix([[1, 1], [1, 1]])
        basis = kernel_basis(m)
        assert len(basis) == 1
        assert mat_vec(m, basis[0]) == (0, 0)

    def test_rank_and_solve(self):
        assert rank(matrix([[2, 1], [1, 1]])) == 2
        assert rank(matrix([[1, 1], [1, 1]])) == 1

    def test_invert(self):
        m = matrix([[2, 1], [1, 1]])
        assert mat_mul(m, invert(m)) == identity_matrix(2)
        with pytest.raises(ValueError):
            invert(matrix([[1, 1], [1, 1]]))


def test_integer_kernel_is_the_scaled_rational_kernel():
    # Bareiss's fraction-free elimination against the Fraction one, on seeded
    # integer matrices of every rank, with zero and repeated rows; each
    # rational basis vector, scaled by the lcm of its denominators, is primitive
    rng = random.Random(11)
    for trial in range(400):
        nrows, ncols = rng.randrange(1, 9), rng.randrange(1, 7)
        r = rng.randrange(min(nrows, ncols) + 1)
        left = [[rng.randrange(-4, 5) for _ in range(r)] for _ in range(nrows)]
        right = [[rng.randrange(-4, 5) for _ in range(ncols)] for _ in range(r)]
        m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if r else
             [0] * ncols for row in left]
        if trial % 4 == 0:
            m = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(ncols)] for _ in range(nrows)]
            m += m[:2]
        want = [tuple(int(x * math.lcm(*(Fraction(y).denominator for y in kv))) for x in kv)
                for kv in kernel_basis(matrix(m))]
        assert integer_kernel(m) == want, m


def expanded_symmetric_action(g, b):
    """g on the degree-b monomials, each image expanded as the product of
    the images of its variables, one variable occurrence at a time."""
    n = len(g)
    monomials = _exponent_tuples(n, b)
    index = {m: i for i, m in enumerate(monomials)}
    out = [[0] * len(monomials) for _ in monomials]
    for col, expo in enumerate(monomials):
        poly = {(0,) * n: 1}
        for var, mult in enumerate(expo):
            for _ in range(mult):
                nxt = {}
                for mono, coeff in poly.items():
                    for i in range(n):
                        if g[i][var]:
                            key = tuple(e + (k == i) for k, e in enumerate(mono))
                            nxt[key] = nxt.get(key, 0) + coeff * g[i][var]
                poly = nxt
        for mono, coeff in poly.items():
            out[index[mono]][col] = coeff
    return out


def test_symmetric_powers_step_up_one_degree_at_a_time():
    # Sym^b(g) from Sym^(b-1)(g) by one linear form per monomial, against the
    # full expansion, on seeded integer matrices of dimension 1-4 with zero
    # entries, and on signed permutations, for b <= 6
    rng = random.Random(29)
    mats = [[[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)]
            for n in (1, 2, 3, 4) for _ in range(6)]
    mats += [[[0, -1, 0], [0, 0, 1], [1, 0, 0]], [[0, 1], [-1, -1]], [[0] * 3] * 3]
    for g in mats:
        g = tuple(map(tuple, g))
        lower = [[1]]
        for b in range(1, 7):
            lower = _symmetric_action(g, b, lower)
            assert lower == expanded_symmetric_action(g, b), (g, b)


def test_tensor_image_is_the_kronecker_product():
    # (e (x) s) v through e and s one at a time, against the dense Kronecker
    # matrix entry (i ds + k, j ds + l) = e[i][j] s[k][l], on seeded integer
    # and Fraction matrices of sizes 1-4 with zero entries
    rng = random.Random(30)
    entries = (0, 0, 1, -1, 2, -3, Fraction(1, 2))
    for de in (1, 2, 3, 4):
        for ds in (1, 2, 3, 4):
            e = [[rng.choice(entries) for _ in range(de)] for _ in range(de)]
            s = [[rng.choice(entries) for _ in range(ds)] for _ in range(ds)]
            v = [rng.choice(entries) for _ in range(de * ds)]
            dense = [[e[i][j] * s[k][l] for j in range(de) for l in range(ds)]
                     for i in range(de) for k in range(ds)]
            assert _tensor_image(e, s, v) == [sum(a * x for a, x in zip(row, v))
                                              for row in dense], (e, s, v)


def test_a_non_integer_coefficient_is_refused():
    # an integral Fraction is refused too: the series holds ints only
    for c in (Fraction(1, 2), Fraction(4, 2), 2.0, True):
        with pytest.raises(ValueError, match=r"coefficient at \(1, 1\) must be an integer"):
            BigradedSeries(6, {(1, 1): c})
