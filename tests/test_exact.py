import random
from fractions import Fraction

import pytest

from twistloop.exact import BigradedSeries, product_over_degrees, solomon_series
from twistloop.oracle import (charpoly, charpoly_from_power_traces,
                              collapse_to_cohomological, dets_from_charpoly,
                              identity_matrix, invert,
                              kernel_basis, mat_mul, mat_vec, matrix, poly_inverse_series,
                              poly_mul_trunc, rank, rational_function_series)

I2 = identity_matrix(2)
DIAG = matrix([[1, 0], [0, -1]])
# companion matrix of x^2 - x - 1
COMPANION = matrix([[0, 1], [1, 1]])
# order-3 rotation: Coxeter element of the rank-2 chain type over its root basis
ROT3 = matrix([[0, -1], [1, -1]])


def naive_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * naive_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(n))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b))


def mat_pow(a, k):
    result = identity_matrix(len(a))
    for _ in range(k):
        result = mat_mul(result, a)
    return result


def series_add(s, t):
    out = dict(s.coefficients)
    for k, c in t.coefficients.items():
        out[k] = out.get(k, 0) + c
    return BigradedSeries(min(s.truncation, t.truncation), out)


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
    def test_one_dim_identity(self):
        assert dets_from_charpoly((-1, 1)) == ((1, 1), (1, -1))

    def test_reflection(self):
        assert dets_from_charpoly((-1, 0, 1)) == ((1, 0, -1), (1, 0, -1))

    def test_rotation(self):
        assert dets_from_charpoly((1, 1, 1)) == ((1, -1, 1), (1, 1, 1))

    def test_against_cofactor_determinants(self):
        # independent check: evaluate det(1 + s*M) and det(1 - t*M) at
        # rational sample points by cofactor expansion
        rng = random.Random(99)
        points = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(3)]
        for _ in range(25):
            n = rng.randint(1, 4)
            m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            num_s, den_t = dets_from_charpoly(charpoly(matrix(m)))
            for x in points:
                plus = [[(1 if i == j else 0) + x * m[i][j] for j in range(n)]
                        for i in range(n)]
                minus = [[(1 if i == j else 0) - x * m[i][j] for j in range(n)]
                         for i in range(n)]
                assert naive_det(plus) == sum(c * x**k for k, c in enumerate(num_s))
                assert naive_det(minus) == sum(c * x**k for k, c in enumerate(den_t))

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            dets_from_charpoly((1, 2))


class TestSeries:
    def test_hand_expansion_truncated_at_four(self):
        s = rational_function_series((1, 1), (1, -1), 4)
        assert s.coefficients == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1, (0, 2): 1}

    def test_multiply_by_inverse_pair(self):
        trunc = 12
        s = rational_function_series((1, 1, 1), (1, 0, 0, -1), trunc)
        one_minus = BigradedSeries(trunc, {(0, 0): 1, (0, 1): -1})
        inverse = rational_function_series((1,), (1, -1), trunc)
        assert series_mul(series_mul(s, one_minus), inverse) == s


class TestRationalFunctionSeries:
    def test_all_ones(self):
        s = rational_function_series((1, 1), (1, -1), 9)
        for a in (0, 1):
            for b in range((9 - a) // 2 + 1):
                assert s[(a, b)] == 1

    def test_geometric_with_signs(self):
        s = rational_function_series((1, 0, -1), (1, 0, -1), 12)
        for b in range(7):
            assert s[(0, b)] == (1 if b % 2 == 0 else 0)
            if 2 + 2 * b <= 12:
                assert s[(2, b)] == (-1 if b % 2 == 0 else 0)

    def test_binomial_row(self):
        s = rational_function_series((1,), (1, -2, 1), 20)
        for b in range(11):
            assert s[(0, b)] == b + 1

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ValueError):
            rational_function_series((1,), (0, 1), 5)


class TestUnivariateHelpers:
    def test_poly_inverse_roundtrip(self):
        den = [1, -1, 0, 2]
        inv = poly_inverse_series(den, 15)
        back = poly_mul_trunc(den, inv, 15)
        assert back == [1] + [0] * 15

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
            num = poly_mul_trunc(num, [1] + [0] * (2 * d - 2) + [1], trunc)
            den = poly_mul_trunc(den, [1] + [0] * (2 * d - 1) + [-1], trunc)
        dense = poly_mul_trunc(num, poly_inverse_series(den, trunc), trunc)
        assert product_over_degrees(degs, trunc) == tuple(dense)

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
            den = poly_mul_trunc(den, [1] + [0] * (d - 1) + [-1], trunc)
        inv = poly_inverse_series(den, trunc)
        expanded = {}
        for (a, b0), c in num.items():
            for b in range(b0, trunc // 2 + 1):
                expanded[(a, b)] = expanded.get((a, b), 0) + c * inv[b - b0]
        s = solomon_series(degs, trunc)
        assert s == BigradedSeries(trunc, expanded)
        assert collapse_to_cohomological(s) == product_over_degrees(degs, trunc)


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


def test_all_coefficients_stay_normalized():
    # Fractions that reduce to integers must be stored as ints
    s = BigradedSeries(6, {(0, 1): Fraction(4, 2), (1, 1): Fraction(1, 2)})
    assert s[(0, 1)] == 2 and isinstance(s[(0, 1)], int)
    doubled = series_add(BigradedSeries(6, {(1, 1): Fraction(1, 2)}),
                         BigradedSeries(6, {(1, 1): Fraction(1, 2)}))
    assert isinstance(doubled[(1, 1)], int)
