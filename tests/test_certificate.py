"""The certified invariant ring of W^sigma, checked against enumeration.

The pipeline takes the folded type's degree table, checks its product
against the coset-chain order, certifies it with a Jacobian determinant
modulo a prime, and expands the product over the degrees.  Here the
oracle closes Steinberg's generators over root permutations, buckets each
element of W^sigma by its characteristic polynomial on the fixed subspace
and averages the super-Molien series; the two routes must give the same
order, bigraded series and single-graded series.  Wrong degrees with the
right product fail the Jacobian, a wrong product fails the order check,
a dropped generator fails the Cartan match and the coset chain, and the
rows of the dual type, which pass the chain and the Jacobian, fail the
Cartan match.  The Jacobian reads each degree's power, stepping by v^2
when every degree is even, as a plain pow() reference does.
Names moved to the oracle stay out of the pipeline, deleted names stay
deleted, and every reference the oracle's fact table names exists.
"""

import inspect
import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

import twistloop
from twistloop import cli, exact, oracle, report, rootsys, twist, weyl
from twistloop.oracle import collapse_to_cohomological
from twistloop.report import TwistReport, TwistSpec, compute
from twistloop.oracle import RootPermutationAction
from twistloop.rootsys import CartanType, build_root_system, degrees, weyl_order
from twistloop.twist import (DiagramAutomorphism, expected_folded_type, folded_root_system,
                             make_automorphism)
from twistloop.weyl import certify_jacobian, coset_indices

from test_acceptance import expected_series
from test_wsigma import ADMISSIBLE, ADMISSIBLE_RANKS, STREAMED

TRUNC = 50
PIPELINE = (twistloop, cli, exact, report, rootsys, twist, weyl)
MOVED_TO_ORACLE = ("fixed_space_charpoly_buckets", "super_molien_from_buckets",
                   "fixed_space_matrices", "collapse_to_cohomological",
                   "RootPermutationAction", "charpoly_from_power_traces", "mat_mul",
                   "normalize_scalar")
# the multi-row form of the generators, replaced by one row each; the row
# read off a dense matrix, then off a walk over root permutations,
# replaced by the row walked from the Cartan matrix; the degrees read off
# a Coxeter element, replaced by the certified degree table; the
# preservation check, replaced by the fold certificate on the rows;
# sigma's orbits on the roots, replaced by the count of its fixed roots;
# the identity's row check, replaced by one row check for every twist;
# and the oracle's second and third routes to W^sigma (the transversal
# stream, the classical centralizer) and its diagram Gram matrix, replaced
# by W^sigma's definition and the ambient Gram matrix; the oracle's
# closure of ambient matrices, replaced by the closure of root
# permutations; the root cap, which no stage needs; and the oracle's dense
# Fraction series algebra, replaced by one integer expansion per bucket
DELETED = ("MovedRows", "moved_rows", "_functional_image", "_reflection_rows", "_orbit",
           "reflection_rows", "fixed_space_rows", "invariant_degrees",
           "_fixed_space_traces", "_exponents", "_cyclotomic", "_divide_monic",
           "wsigma_preserves_folded", "orbits_on_roots", "wsigma_transversals",
           "wsigma_elements", "_walk_products", "classical_wsigma_perms", "folded_gram",
           "generate_group", "reflection_matrix", "subspace_stabilizer",
           "restrict_to_subspace", "solve", "MAX_ROOTS", "dets_from_charpoly",
           "poly_inverse_series", "rational_function_series", "poly_mul_trunc",
           "untwisted_rows")


def certificate_inputs(family, rank, tag):
    rs = build_root_system(CartanType(family, rank))
    aut = make_automorphism(rs, tag)
    fold = folded_root_system(aut)
    action = RootPermutationAction(rs)
    generators = action.steinberg_generators(aut.simple_perm)
    return aut, fold, action, generators


# every ALL_TYPES identity and every TWISTED case with |W^sigma| <= 10^5
@pytest.mark.parametrize("family,rank,tag", STREAMED)
def test_certificate_agrees_with_enumeration(family, rank, tag):
    aut, fold, action, generators = certificate_inputs(family, rank, tag)
    order = weyl_order(fold.folded_type)
    positive = sum(all(c >= 0 for c in v) for v in fold.folded_roots)
    rows = report._chain_rows(fold.rows, fold.nodes, fold.folded_type)
    ds = degrees(fold.folded_type)
    indices, orbit = coset_indices(rows, order)
    assert math.prod(indices) == math.prod(ds) == order
    assert certify_jacobian(rows, ds, orbit) >= 1
    assert sum(d - 1 for d in ds) == positive

    rpt = compute(TwistSpec(CartanType(family, rank), tag, truncation=TRUNC))
    elements = oracle.close_permutations(generators, 10**7)
    buckets = oracle.fixed_space_charpoly_buckets(action, aut.simple_perm, elements)
    enumerated = sum(buckets.values())
    molien = oracle.super_molien_from_buckets(buckets, enumerated, TRUNC)
    assert rpt.stabilizer_order == rpt.restricted_order == enumerated == order
    assert rpt.bigraded == molien
    assert rpt.series == collapse_to_cohomological(molien)


def test_compute_never_walks_the_group(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an element walk of W^sigma on the pipeline path")

    for module in PIPELINE:
        source = Path(module.__file__).read_text()
        for name in MOVED_TO_ORACLE:
            assert hasattr(oracle, name), name
            assert not hasattr(module, name), (module.__name__, name)
            assert f"def {name}(" not in source and f"class {name}" not in source, \
                (module.__name__, name)
    for module in PIPELINE + (oracle,):
        source = Path(module.__file__).read_text()
        for name in DELETED:
            assert not hasattr(module, name), (module.__name__, name)
            assert f"def {name}(" not in source and f"{name} =" not in source, \
                (module.__name__, name)
    assert "cap" not in inspect.signature(coset_indices).parameters
    # the oracle's element walks of W^sigma
    monkeypatch.setattr(oracle, "close_permutations", refuse)
    monkeypatch.setattr(oracle, "fixed_space_stabilizer_perms", refuse)
    for family, rank, tag in STREAMED:
        rpt = compute(TwistSpec(CartanType(family, rank), tag, truncation=TRUNC))
        assert rpt.series == expected_series(degrees(rpt.folded_type)), (family, rank, tag)


def test_every_fact_table_reference_exists():
    # the reference column of the oracle's fact table: its span is read off
    # the table's rules of '=' signs, and a row's continuation lines leave
    # the first column blank
    lines = oracle.__doc__.splitlines()
    rules = [i for i, line in enumerate(lines) if line and set(line) <= {"=", " "}]
    assert len(rules) == 3, rules
    (_, start, end) = [m.start() for m in re.finditer("=+", lines[rules[0]])]
    rows: dict[str, list[str]] = {}
    for line in lines[rules[1] + 1:rules[2]]:
        if line[:start].strip():
            rows[line[:start].strip()] = names = []
        names.extend(re.findall(r"``(\w+)``", line[start:end]))
    assert list(rows) == ["roots", "Cartan matrix", "twist check", "sigma's orbits", "fold", "rows",
                          "|W^sigma|", "coset indices", "degrees, series", "--check series",
                          "closed form", "excluded primes"]
    for fact, names in rows.items():
        assert names, fact
        for name in names:
            assert hasattr(oracle, name), (fact, name)
            assert not any(hasattr(module, name) for module in PIPELINE), (fact, name)


def test_compute_forms_no_root_permutation(monkeypatch):
    # the rows are read off the folded Cartan matrix and sigma's orbits
    # counted from the root counts; only --check, through the oracle,
    # permutes the roots.  The records hold no permutation, index, sign
    # mask or bigraded series.
    assert "root_perm" not in DiagramAutomorphism.__slots__
    rs = build_root_system(CartanType("E", 6))
    assert not hasattr(rs, "root_index") and not hasattr(rs, "positive_mask")
    assert TwistReport.__slots__[-1] == "notes"
    assert "hidden" not in inspect.signature(exact.Record.__init_subclass__).parameters

    def refuse(*args, **kwargs):
        raise AssertionError("root permutations on the pipeline path")

    monkeypatch.setattr(RootPermutationAction, "__init__", refuse)
    monkeypatch.setattr(oracle, "root_permutation", refuse)
    for family, rank, tag in STREAMED:
        rpt = compute(TwistSpec(CartanType(family, rank), tag, truncation=TRUNC))
        assert rpt.stabilizer_order == weyl_order(rpt.folded_type), (family, rank, tag)
    with pytest.raises(AssertionError, match="root permutations"):
        compute(TwistSpec(CartanType("A", 2), run_oracle=True))


def chain_inputs(family, rank, tag):
    """compute()'s rows in the coset chain's order, the folded type's
    degrees and the chain's indices and last orbit."""
    fold = folded_root_system(make_automorphism(build_root_system(CartanType(family, rank)),
                                                tag))
    rows = report._chain_rows(fold.rows, fold.nodes, fold.folded_type)
    return rows, degrees(fold.folded_type), *coset_indices(rows, weyl_order(fold.folded_type))


# the size of the chain's last orbit, the first the Jacobian uses
FIRST_ORBIT = {("E", 6, "identity"): 27, ("D", 6, "identity"): 12, ("D", 8, "identity"): 16,
               ("A", 7, "flip"): 8, ("D", 4, "triality"): 6, ("D", 2, "identity"): 2}


# one orbit, with the Pfaffian for D_n, except for D2 = A1 x A1, whose first
# orbit is one coordinate's +- pair
@pytest.mark.parametrize("family,rank,tag,orbits", [
    ("E", 6, "identity", 1), ("D", 6, "identity", 1), ("D", 8, "identity", 1),
    ("A", 7, "flip", 1), ("D", 4, "triality", 1), ("D", 2, "identity", 2)])
def test_jacobian_needs_few_orbits(family, rank, tag, orbits):
    rows, ds, _, orbit = chain_inputs(family, rank, tag)
    assert len(orbit) == FIRST_ORBIT[family, rank, tag]
    assert certify_jacobian(rows, ds, orbit) == orbits


# [W_k : W_(k-1)] in compute()'s chain order: nodes n..1 for B, C and D,
# 1..n otherwise
CHAIN_INDICES = ([(("A", n), tuple(range(2, n + 2))) for n in range(1, 16)] +
                 [((f, n), tuple(range(2, 2 * n + 1, 2))) for f in "BC" for n in range(1, 12)] +
                 [(("D", 2), (2, 2))] +
                 [(("D", n), (2, 2) + tuple(range(6, 2 * n + 1, 2))) for n in range(3, 12)] +
                 [(("E", 6), (2, 2, 3, 10, 16, 27)), (("E", 7), (2, 2, 3, 10, 16, 27, 56))])


@pytest.mark.parametrize("family,rank,indices", [(f, n, i) for (f, n), i in CHAIN_INDICES])
def test_chain_indices_have_their_closed_forms(family, rank, indices):
    assert chain_inputs(family, rank, "identity")[2] == indices


def positive_half(orbit):
    return [phi for phi in orbit if next(a for a in phi if a) > 0]


def product_ratios(rows, half):
    """P(s_r x) / P(x) for P the product of the functionals in half, at a
    point x, over the reflections s_r with the given rows, evaluated
    directly."""
    x = [3 ** k + 2 * k + 1 for k in range(len(rows))]

    def product(v):
        return math.prod(sum(a * b for a, b in zip(phi, v)) for phi in half)

    assert product(x)
    ratios = set()
    for r, row in enumerate(rows):
        image = list(x)
        image[r] += sum(a * b for a, b in zip(row, x))
        ratios.add(Fraction(product(image), product(x)))
    return ratios


@pytest.mark.parametrize("family", "BCD")
@pytest.mark.parametrize("rank", range(3, 9))
def test_half_product_is_the_pfaffian_for_d_only(family, rank):
    # the chain's last orbit is +-e_i: its positive half multiplies to
    # x_1...x_n, invariant for D_n and sent to its negative by the last
    # node's reflection for B_n and C_n
    rows, _, _, orbit = chain_inputs(family, rank, "identity")
    half = positive_half(orbit)
    assert len(orbit) == 2 * len(half) == 2 * rank
    assert product_ratios(rows, half) == ({1} if family == "D" else {1, -1})
    assert weyl._half_product(orbit, rows, (rank,)) == (half, half if family == "D" else [])


def test_half_product_needs_an_orbit_closed_under_negation():
    # a half-spin orbit of D5 is not -U, yet every generator moves an even
    # number of its 8 positive-first members out of them, and 8 is a degree:
    # only the U = -U test refuses their product, which is not invariant
    rows, ds, _, _ = chain_inputs("D", 5, "identity")
    orbit = weyl._orbit_search(0, len(rows), weyl._sparse_rows(rows), 10**7)
    half = positive_half(orbit)
    assert len(orbit) == 16 and len(half) == 8 and 8 in ds
    assert tuple(-a for a in orbit[0]) not in orbit
    assert product_ratios(rows, half) != {1}
    assert weyl._half_product(orbit, rows, ds) == (None, [])


def test_every_admissible_case_certifies_on_one_orbit(monkeypatch):
    # every admissible case, E8 identity among them with the cap past
    # |W(A15)| = 16!, goes through the certificate on the chain's last
    # orbit alone, but D2 = A1 x A1
    cases = [(CartanType(family, rank), tag) for family, rank, tag in ADMISSIBLE]
    assert max(rootsys.root_count(t) for t, _ in cases) <= oracle.MAX_BYTE_ROOTS
    assert all(rootsys.root_count(CartanType(f, max(rs) + 1)) > oracle.MAX_BYTE_ROOTS
               for f, rs in ADMISSIBLE_RANKS.items() if f in "ABCD")
    used = []

    def counted(rows, ds, orbit):
        used.append(certify_jacobian(rows, ds, orbit))
        return used[-1]

    monkeypatch.setattr(report, "certify_jacobian", counted)
    monkeypatch.setattr(weyl, "DEFAULT_ELEMENT_CAP", 10**14)
    start = time.perf_counter()
    for t, tag in cases:
        rpt = compute(TwistSpec(t, tag, truncation=TRUNC))
        assert rpt.series == expected_series(degrees(rpt.folded_type)), (t, tag)
    assert time.perf_counter() - start < 1
    assert len(used) == len(cases) == 79
    assert {case: n for case, n in zip(cases, used) if n != 1} == \
        {(CartanType("D", 2), "identity"): 2}


def reference_jacobian(rows, ds, orbit):
    """The first seeded point's Jacobian on the whole orbit U, entry by entry
    with pow(): row i is c_i grad sum_{phi in U} phi^(d_i), plus e_i times
    the gradient of the product over U's positive half when U = -U and that
    product is invariant (product_ratios) of degree d_i."""
    p, dim = weyl.JACOBIAN_PRIME, len(ds)
    point, weights = weyl._jacobian_point(0, dim), weyl._seeded(2, dim * dim + dim)
    value = {phi: sum(a * x for a, x in zip(phi, point)) % p for phi in orbit}
    half = positive_half(orbit)
    if not (tuple(-a for a in orbit[0]) in orbit and len(half) in ds
            and product_ratios(rows, half) == {1}):
        half = []
    extra = [sum(phi[k] * math.prod(value[psi] for psi in half if psi != phi)
                 for phi in half) for k in range(dim)]
    return [[(weights[i * dim] * sum(phi[k] * pow(value[phi], d - 1, p) for phi in orbit)
              + weights[dim * dim + i] * (len(half) == d) * extra[k]) % p
             for k in range(dim)] for i, d in enumerate(ds)]


def jacobians(rows, ds, orbit, monkeypatch):
    """Every Jacobian certify_jacobian forms, one per orbit it tries, and
    the half _half_product gave for each orbit: H, or None for the whole
    orbit."""
    seen, halves = [], []

    def spy(matrix, p):
        seen.append([row[:] for row in matrix])
        return nonsingular(matrix, p)

    def half_spy(orbit, rows, ds):
        halves.append(half_product(orbit, rows, ds)[0])
        return half_product(orbit, rows, ds)

    nonsingular, half_product = weyl._nonsingular_mod, weyl._half_product
    monkeypatch.setattr(weyl, "_nonsingular_mod", spy)
    monkeypatch.setattr(weyl, "_half_product", half_spy)
    certify_jacobian(rows, ds, orbit)
    return seen, halves


@pytest.mark.parametrize("family,rank,tag", [c for c in ADMISSIBLE if c[1] <= 12])
def test_half_orbit_jacobian_is_the_full_orbit_one(family, rank, tag, monkeypatch):
    # an orbit U = -U is summed over its positive half H, twice for an even
    # degree and not at all for an odd one; mod p the Jacobian is the one
    # the whole orbit gives.  Every twisted case folds to B, C, F4 or G2,
    # whose chain ends in such an orbit, and so do B, C, D, E7, E8, F4 and
    # G2; A_n (n >= 2) and E6 keep the whole orbit (U != -U), and D5 and D7
    # take their odd degree from the Pfaffian alone
    rows, ds, _, orbit = chain_inputs(family, rank, tag)
    seen, halves = jacobians(rows, ds, orbit, monkeypatch)
    jacobian, half = seen[0], halves[0]
    assert jacobian == reference_jacobian(rows, ds, orbit)
    full = tag == "identity" and (family == "A" and rank >= 2 or (family, rank) == ("E", 6))
    assert (half is None) == full
    if half is not None:
        assert len(orbit) == 2 * len(half) and set(orbit) == {
            v for phi in half for v in (phi, tuple(-a for a in phi))}


@pytest.mark.parametrize("family,rank,tag,even", [
    ("B", 3, "identity", True), ("C", 4, "identity", True), ("G", 2, "identity", True),
    ("F", 4, "identity", True), ("D", 4, "identity", True), ("A", 7, "flip", True),
    ("D", 4, "triality", True), ("E", 6, "flip", True), ("A", 4, "identity", False),
    ("D", 5, "identity", False), ("E", 6, "identity", False)])
def test_jacobian_reads_the_power_of_each_degree(family, rank, tag, even, monkeypatch):
    # every degree read even (B, C, G2, F4, D4 and the twists, which fold to
    # them, and D5's half orbit) steps the powers by v^2; a mixed table on a
    # whole orbit steps by v.  Either way the gradient of phi^d reads phi^(d-1)
    rows, ds, _, orbit = chain_inputs(family, rank, tag)
    seen, _ = jacobians(rows, ds, orbit, monkeypatch)
    assert seen == [reference_jacobian(rows, ds, orbit)]
    assert all(d % 2 == 0 for d in ds) == even


@pytest.mark.parametrize("family,rank,tag,wrong", [
    ("F", 4, "identity", (3, 4, 8, 12)), ("E", 6, "identity", (3, 4, 5, 8, 9, 12)),
    ("E", 6, "flip", (3, 4, 8, 12)), ("D", 4, "identity", (2, 2, 6, 8)),
    ("D", 4, "triality", (3, 4)), ("B", 3, "identity", (3, 4, 4)),
    ("B", 4, "identity", (2, 4, 4, 12))])
def test_wrong_degrees_with_the_right_product_fail_the_jacobian(family, rank, tag, wrong):
    # the coset-chain order alone would pass these degrees; so would the
    # Jacobian for B4's, with x_1 x_2 x_3 x_4, a semi-invariant, taken for a
    # second invariant of degree 4
    rows, right, indices, orbit = chain_inputs(family, rank, tag)
    assert math.prod(wrong) == math.prod(indices)
    assert tuple(sorted(wrong)) != right
    certify_jacobian(rows, right, orbit)
    with pytest.raises(ValueError, match="no invariants of degrees .* nonzero Jacobian"):
        certify_jacobian(rows, wrong, orbit)


def test_a_wrong_degree_product_fails_the_order_check(monkeypatch):
    # compute() takes |W^sigma| as the degrees' product, so the coset chain,
    # whose indices multiply to 1152 for F4, refuses a product above or below it
    for wrong, product in (((2, 6, 8, 13), 1248), ((2, 6, 8, 11), 1056)):
        monkeypatch.setattr(report, "degrees", lambda t: wrong)
        with pytest.raises(ValueError, match=r"^F4 identity: coset counts \[2, 3, 8, 24\] do "
                                             rf"not multiply to the group order {product}$"):
            compute(TwistSpec(CartanType("F", 4)))


@pytest.mark.parametrize("family,rank,tag", [("E", 6, "flip"), ("D", 4, "triality"),
                                             ("A", 5, "identity"), ("D", 6, "identity")])
def test_zero_jacobian_point_names_the_case(family, rank, tag, monkeypatch):
    # at the origin every partial derivative of a degree >= 2 invariant vanishes
    monkeypatch.setattr(weyl, "_jacobian_point", lambda attempt, dim: [0] * dim)
    with pytest.raises(ValueError, match=rf"^{family}{rank} {tag}: no invariants "
                                         r"of degrees .* nonzero Jacobian"):
        compute(TwistSpec(CartanType(family, rank), tag))


def test_zero_jacobian_point_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(weyl, "_jacobian_point", lambda attempt, dim: [0] * dim)
    assert cli.main(["--type", "E", "--rank", "6", "--auto", "flip"]) == 1
    assert capsys.readouterr().err.startswith("error: E6 flip: no invariants")


@pytest.mark.parametrize("family,rank,tag", [("E", 6, "identity"), ("A", 5, "flip"),
                                             ("D", 4, "triality"), ("B", 3, "identity")])
def test_dropped_generator_breaks_the_coset_chain(family, rank, tag, monkeypatch):
    # a zero row is the identity in place of the last generator: its Cartan
    # column has no 2 on the diagonal, so the fold refuses the rows, and
    # the chain they span ends in an index of 1, short of the folded Weyl
    # group's order.  compute() reads every twist's rows off the folded
    # Cartan matrix and walks none, so the reference fold, which walks
    # them, is what refuses them
    walked = twist.steinberg_rows
    zeroed = []

    def zero_last(t, simple_perm):
        rows = walked(t, simple_perm)
        zeroed.append(rows[:-1] + ((0,) * len(rows),))
        return zeroed[-1]

    monkeypatch.setattr(twist, "steinberg_rows", zero_last)
    folded = expected_folded_type(CartanType(family, rank), tag)
    with pytest.raises(ValueError, match=f"^folded Cartan matrix does not match {folded}$"):
        _reference_fold(CartanType(family, rank), tag)
    with pytest.raises(ValueError, match=r"^coset counts \[.*, 1\] "
                                         r"do not multiply to the group order \d+$"):
        coset_indices(zeroed[-1], weyl_order(folded))


@pytest.mark.parametrize("family,rank,tag,other", [
    ("A", 5, "flip", ("B", 3)), ("A", 7, "flip", ("B", 4)), ("A", 6, "flip", ("C", 3)),
    ("D", 5, "flip", ("C", 4)), ("B", 4, "identity", ("C", 4)),
    ("C", 3, "identity", ("B", 3))])
def test_rows_of_the_dual_type_fail_the_cartan_match(family, rank, tag, other, monkeypatch):
    # B_n and C_n share their Weyl group, its order and its degrees, so
    # the coset chain and the Jacobian pass the other type's rows; only the
    # match of the rows' Cartan matrix with the folded type's refuses them,
    # in the reference fold, the one place a twist's rows are walked
    t = CartanType(family, rank)
    folded = expected_folded_type(t, tag)
    dual = CartanType(*other)
    rows = twist.steinberg_rows(dual, tuple(range(dual.rank)))
    chain = report._chain_rows(rows, range(dual.rank), folded)
    _, orbit = coset_indices(chain, weyl_order(folded))
    assert certify_jacobian(chain, degrees(folded), orbit) == 1
    monkeypatch.setattr(twist, "steinberg_rows", lambda t, simple_perm: rows)
    with pytest.raises(ValueError, match=f"^folded Cartan matrix does not match {folded}$"):
        _reference_fold(t, tag)


def _reference_fold(t, tag):
    """The route that walks a twist's rows and matches them to the folded
    type's: the reference fold, since compute() reads them."""
    return folded_root_system(make_automorphism(build_root_system(t), tag))


def test_orbit_search_is_bounded_by_the_group_order():
    # a stretch generates no finite group: its orbits would never close; the
    # coset chain and the Jacobian's further orbits share one search and its
    # bound, the group order, which the Jacobian takes from the degrees
    stretch = ((1,),)  # row 0 of ((2,),) - 1
    with pytest.raises(ValueError, match="functional orbit passed 2 elements"):
        coset_indices(stretch, 2)
    # +-y_2 alone has a singular Jacobian, so the orbit of y_1 is searched
    with pytest.raises(ValueError, match="functional orbit passed 4 elements"):
        certify_jacobian(((1, 0), (0, 0)), (2, 2), [(0, 1), (0, -1)])


@pytest.mark.parametrize("family,rank", [("E", 7), ("D", 8)])
def test_large_identity_cases_are_fast(family, rank):
    # 2903040 and 5160960 elements: walking them took 15 s and 40 s
    t = CartanType(family, rank)
    start = time.perf_counter()
    rpt = compute(TwistSpec(t, "identity", truncation=TRUNC))
    assert time.perf_counter() - start < 5
    assert rpt.stabilizer_order == weyl_order(t)
    assert rpt.series == expected_series(degrees(t))


def _seeded_square_matrices(p):
    """Seeded n x n integer matrices, n = 1..9, each entry 0 one time in
    three (which keeps the cofactor expansion short at n = 9): residues mod
    p, entries in -3p..3p, and each of these with a last row that is a
    combination of the others mod p, with a leading entry p, which is 0 mod
    p and forces a row swap, and with one column of multiples of p."""
    rng = random.Random(p)

    def matrix(n, lo, hi):
        return [[0 if rng.random() < 1 / 3 else rng.randrange(lo, hi) for _ in range(n)]
                for _ in range(n)]

    for n in range(1, 10):
        for kind, m in (("residues", matrix(n, 0, p)), ("wide", matrix(n, -3 * p, 3 * p))):
            yield n, kind, m
            weights = [rng.randrange(-5, 6) for _ in range(n - 1)]
            dependent = [row[:] for row in m[:-1]]
            dependent.append([sum(w * row[j] for w, row in zip(weights, dependent)) + p * (j == 0)
                              for j in range(n)])
            yield n, kind + ", dependent row", dependent
            swap = [row[:] for row in m]
            swap[0][0] = p
            yield n, kind + ", zero leading entry", swap
            column = rng.randrange(n)
            zero = [[rng.randrange(-2, 3) * p if j == column else a for j, a in enumerate(row)]
                    for row in m]
            yield n, kind + ", zero column", zero


@pytest.mark.parametrize("p", [weyl.JACOBIAN_PRIME, 7])
def test_nonsingular_mod_agrees_with_the_determinant(p):
    # the packed elimination against the oracle's cofactor expansion, at a
    # large prime and at a small one, where random matrices are often singular
    verdicts = set()
    for n, kind, m in _seeded_square_matrices(p):
        expected = oracle._det(m) % p != 0
        assert weyl._nonsingular_mod(m, p) == expected, (n, kind, m)
        verdicts.add(expected)
        if kind.endswith(("dependent row", "zero column")):
            assert not expected
    assert verdicts == {True, False}


def _plain_nonsingular_mod(m, p):
    """Gaussian elimination mod p, one entry at a time, with inverses."""
    rows = [[a % p for a in row] for row in m]
    for c in range(len(rows)):
        k = next((k for k in range(c, len(rows)) if rows[k][c]), None)
        if k is None:
            return False
        rows[c], rows[k] = rows[k], rows[c]
        inv = pow(rows[c][c], -1, p)
        for row in rows[c + 1:]:
            f = row[c] * inv % p
            for j in range(c, len(rows)):
                row[j] = (row[j] - f * rows[c][j]) % p
    return True


@pytest.mark.parametrize("p", [weyl.JACOBIAN_PRIME, 7])
@pytest.mark.parametrize("n", [20, 40, 80])
def test_packed_elimination_agrees_with_a_plain_one(n, p):
    # seeded n x n matrices: residues and entries in -3p..3p, with a zero
    # leading entry, and with a last row that is a combination of the others
    rng = random.Random(n * p)
    verdicts = set()
    for lo in (0, -3 * p):
        m = [[rng.randrange(lo, 3 * p if lo else p) for _ in range(n)] for _ in range(n)]
        m[0][0] = p
        weights = [rng.randrange(-5, 6) for _ in range(n - 1)]
        dependent = m[:-1] + [[sum(w * row[j] for w, row in zip(weights, m)) for j in range(n)]]
        for matrix in (m, dependent):
            expected = _plain_nonsingular_mod(matrix, p)
            assert weyl._nonsingular_mod(matrix, p) == expected, (n, p, lo)
            verdicts.add(expected)
    assert verdicts == {True, False}


@pytest.mark.parametrize("p", [5, 11, 2**61 + 1, 3, 2**62 - 1, 2**64 - 1])
def test_packed_elimination_refuses_other_moduli(p):
    # the fold needs p = 2^k - 1, and a 128-bit slot holds its products for k <= 61
    with pytest.raises(ValueError, match=r"p must be 2\^k - 1"):
        weyl._nonsingular_mod([[1, 0], [0, 1]], p)

