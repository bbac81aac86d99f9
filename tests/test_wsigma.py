"""W^sigma from Steinberg generators, checked against its definition.

The pipeline enumerates no group and permutes no root: it reads one row
per generator of W^sigma on the fixed subspace off the folded type's
Cartan matrix, the row the walk of the longest parabolic element w_O,
one per sigma-orbit O of simple nodes, on its images of the simple
roots gives, and takes W^sigma's order from the coset indices along
the chain of subgroups they span, each the size of an orbit of a
coordinate functional there.  These tests check the rows against the
Cartan matrix of the projected simple roots, summed from the ambient
inner products (``projected_gram``), and against the dense matrices of
the same generators walked over root permutations; each coset index
against the ratio of the orders of the subgroups the first generators
close to; and that closure against W^sigma's definition, the stabilizer
of the fixed subspace in the enumerated W, for every twisted case of the
acceptance matrix, with its power-trace buckets against the Berkowitz
buckets and an exhaustive check that the whole group permutes the folded
roots.  ``--check`` takes W^sigma from its definition alone.
"""

import time
import tracemalloc
from operator import mul

import pytest

from twistloop import cli, exact, oracle, report, rootsys, twist, weyl
from twistloop.report import TwistSpec, compute
from twistloop.rootsys import CartanType, build_root_system, weyl_order
from twistloop.twist import (check_folded_roots, expected_folded_type,
                             folded_root_system, make_automorphism)
from twistloop.oracle import (RootPermutationAction, WeylPermutationGroup,
                              cartan_from_gram, close_permutations,
                              fixed_space_charpoly_buckets,
                              fixed_space_stabilizer_perms, projected_gram,
                              restricted_fixed_space_group, root_permutation,
                              wsigma_by_definition)
from twistloop.weyl import GroupTooLargeError, coset_indices, steinberg_rows

from conftest import mirrored
from test_acceptance import expected_series
from test_rootsys import ALL_TYPES

TWISTED = ([("A", r, "flip") for r in range(2, 9)] +
           [("D", n, "flip") for n in range(2, 7)] +
           [("E", 6, "flip"), ("D", 4, "triality"), ("D", 4, "triality2")])


# every type and twist with at most MAX_BYTE_ROOTS roots, the classical
# families up to the last rank below it
ADMISSIBLE_RANKS = {"A": range(1, 16), "B": range(1, 12), "C": range(1, 12),
                    "D": range(2, 12), "E": (6, 7, 8), "F": (4,), "G": (2,)}


def admissible_cases():
    cases = []
    for family, ranks in ADMISSIBLE_RANKS.items():
        for rank in ranks:
            for tag in twist.AUTOMORPHISM_TAGS:
                try:
                    twist.check_tag(CartanType(family, rank), tag)
                except ValueError:
                    continue
                cases.append((family, rank, tag))
    return cases


ADMISSIBLE = admissible_cases()

STREAMED = ([(f, r, "identity") for f, r in ALL_TYPES
             if weyl_order(CartanType(f, r)) <= 10**5] + TWISTED)


def folded_order(aut):
    return weyl_order(expected_folded_type(aut.base.cartan_type, aut.tag))


def wsigma_of(rs, aut):
    """The tests' W^sigma: the closure of Steinberg's generators over root
    permutations, in discovery order."""
    action = RootPermutationAction(rs)
    generators = action.steinberg_generators(aut.simple_perm)
    return action, generators, close_permutations(generators, 10**7)


@pytest.mark.parametrize("family,rank,tag", STREAMED)
def test_stream_is_the_closure_of_the_generators(family, rank, tag):
    # the element sequence the certificate test buckets: the closure of the
    # generators, each element once, as many as the folded Weyl group has
    rs = build_root_system(CartanType(family, rank))
    aut = make_automorphism(rs, tag)
    _, _, wsigma = wsigma_of(rs, aut)
    assert len(wsigma) == len(set(wsigma)) == folded_order(aut)


def coset_inputs(family, rank, tag):
    """The oracle's byte walk of the generators and their dense matrices
    on the fixed subspace, and the rows walked from the Cartan matrix,
    which the pipeline reads off the folded one."""
    rs = build_root_system(CartanType(family, rank))
    aut = make_automorphism(rs, tag)
    action = RootPermutationAction(rs)
    generators = action.steinberg_generators(aut.simple_perm)
    matrices = oracle.fixed_space_matrices(action, aut.simple_perm, generators)
    return aut, action, generators, matrices, steinberg_rows(rs.cartan_type, aut.simple_perm)


def dense_image(m, v):
    """m v, computed densely."""
    return tuple(sum(map(mul, row, v)) for row in m)


def dense_functional_image(phi, m):
    """phi m, computed densely."""
    return tuple(sum(map(mul, phi, col)) for col in zip(*m))


@pytest.mark.parametrize("family,rank,tag", [("E", 6, "flip"), ("B", 4, "identity"),
                                             ("D", 4, "triality"), ("A", 6, "flip"),
                                             ("G", 2, "identity")])
def test_reflection_rows_act_as_the_dense_matrices(family, rank, tag):
    # the folded roots have entries of both signs, so every sign of phi_k
    # and of row_k . v is met
    aut, _, _, matrices, rows = coset_inputs(family, rank, tag)
    fold = folded_root_system(aut)
    assert len(rows) == len(matrices)
    for k, (g, row) in enumerate(zip(matrices, rows)):
        for v in mirrored(fold.folded_roots):
            functional = tuple(a + v[k] * b for a, b in zip(v, row))
            assert functional == dense_functional_image(v, g)
            assert (functional == v) == (v[k] == 0)
            vector = list(v)
            vector[k] += sum(map(mul, row, v))
            assert tuple(vector) == dense_image(g, v)


LOWERING = ([("A", r, "identity") for r in range(1, 9)] +
            [(f, r, "identity") for f in "BC" for r in range(2, 7)] +
            [("D", r, "identity") for r in range(4, 9)] +
            [("E", 6, "identity"), ("E", 7, "identity"), ("F", 4, "identity"),
             ("G", 2, "identity")] +
            [("A", r, "flip") for r in range(2, 15)] +
            [("D", r, "flip") for r in range(4, 9)] +
            [("E", 6, "flip"), ("D", 4, "triality"), ("D", 4, "triality2")])


def assert_rows_are_the_reflections(matrices, rows, gram):
    """The rows walked from the Cartan matrix against the dense matrices
    g_k of the oracle, built from its byte walk: row k of g_k - 1 is row k,
    every other row of g_k - 1 is zero, and, as s_k(v) = v - <v, beta_k^vee>
    beta_k, row k is minus column k of the Cartan matrix of gram, the
    projected simple roots' inner products: this ties the W^sigma stage to
    the fold without the pipeline's Gram matrix."""
    assert len(rows) == len(matrices)
    for k, g in enumerate(matrices):
        moved = [tuple(a - (i == j) for j, a in enumerate(row)) for i, row in enumerate(g)]
        assert moved[k] == rows[k], k
        assert all(not any(row) for i, row in enumerate(moved) if i != k), k
    assert rows == tuple(tuple(-a for a in col) for col in zip(*cartan_from_gram(gram)))


@pytest.mark.parametrize("family,rank,tag", sorted(set(STREAMED + LOWERING + ADMISSIBLE)))
def test_reflection_rows_are_the_folded_cartan_columns(family, rank, tag):
    # the walk keeps only the coordinates of O_k, on the columns of O_k and
    # of the first nodes next to it; the oracle's byte walk of the same
    # generators gives each one's whole matrix on the fixed subspace
    aut, _, _, matrices, rows = coset_inputs(family, rank, tag)
    assert_rows_are_the_reflections(matrices, rows, projected_gram(aut))


def test_a_non_parabolic_generator_fails_the_row_check():
    # w_0 w_1 of the E6 flip changes the coordinates of two sigma-orbits, so
    # its dense matrix moves two rows of the fixed subspace, even with row 0
    # taken from that matrix
    aut, action, generators, _, rows = coset_inputs("E", 6, "flip")
    w0, w1 = generators[:2]
    foreign = (bytes(map(w0.__getitem__, w1)),) + generators[1:]
    matrices = oracle.fixed_space_matrices(action, aut.simple_perm, foreign)
    moved = tuple(a - (j == 0) for j, a in enumerate(matrices[0][0]))
    rows = (moved,) + rows[1:]
    with pytest.raises(AssertionError):
        assert_rows_are_the_reflections(matrices, rows, projected_gram(aut))


def test_the_walk_is_bounded_by_the_positive_root_count(monkeypatch):
    # no element of W is longer than the positive roots are many, and the
    # A2 flip's one generator, the longest element of W(A2), is that long:
    # with a bound one step shorter the walk refuses it
    t, perm = CartanType("A", 2), (1, 0)
    assert steinberg_rows(t, perm) == ((-2,),)
    count = weyl.root_count
    monkeypatch.setattr(weyl, "root_count", lambda t: count(t) - 2)
    with pytest.raises(ValueError, match="^parabolic longest element longer than the "
                                         "root count allows$"):
        steinberg_rows(t, perm)


def full_orbit(start, matrices):
    """Breadth-first orbit of the functional start, phi -> phi g for every
    matrix g, each image computed densely whatever the signs of phi."""
    orbit = [start]
    seen = {start}
    for phi in orbit:
        for g in matrices:
            psi = dense_functional_image(phi, g)
            if psi not in seen:
                seen.add(psi)
                orbit.append(psi)
    return orbit


@pytest.mark.parametrize("family,rank,tag", LOWERING)
def test_lowering_steps_find_the_full_orbits_in_order(family, rank, tag):
    # the coset searches and the Jacobian's orbits step only where phi_r > 0;
    # the ordered orbit lists must be those of the full search
    aut, _, _, matrices, rows = coset_inputs(family, rank, tag)
    dim = len(matrices)
    units = [tuple(int(i == k) for i in range(dim)) for k in range(dim)]
    for k in range(dim):
        assert list(weyl._orbit_search(k, dim, weyl._sparse_rows(rows[:k + 1]), 10**7)) == \
            full_orbit(units[k], matrices[:k + 1])
    # the chain's last orbit and the Jacobian's further ones, one search each
    assert coset_indices(rows, folded_order(aut))[1] == full_orbit(units[-1], matrices)
    assert [list(weyl._orbit_search(k, dim, weyl._sparse_rows(rows), 10**7))
            for k in range(dim)] == \
        [full_orbit(u, matrices) for u in units]


# [W_k : W_(k-1)] for the parabolic subgroups W_k of the folded type on its
# first k nodes, in the generators' order, where closing the groups costs
# seconds
PARABOLIC_RATIOS = {("E", 7, "identity"): (2, 2, 3, 10, 16, 27, 56),
                    ("D", 8, "identity"): (2, 3, 4, 5, 6, 7, 8, 128),
                    ("A", 14, "flip"): (2, 3, 4, 5, 6, 7, 128)}


@pytest.mark.parametrize("family,rank,tag", STREAMED + list(PARABOLIC_RATIOS))
def test_coset_indices_are_the_transversal_sizes(family, rank, tag):
    # a transversal of W_(k-1) in W_k, W_k the subgroup the first k
    # generators close to, has |W_k| / |W_(k-1)| elements
    aut, _, generators, _, rows = coset_inputs(family, rank, tag)
    indices, _ = coset_indices(rows, folded_order(aut))
    if (family, rank, tag) in PARABOLIC_RATIOS:
        assert indices == PARABOLIC_RATIOS[family, rank, tag]
        return
    orders = [1] + [len(close_permutations(generators[:k], 10**7))
                    for k in range(1, len(generators) + 1)]
    assert all(big % small == 0 for small, big in zip(orders, orders[1:]))
    assert indices == tuple(big // small for small, big in zip(orders, orders[1:]))


@pytest.mark.parametrize("family,rank,tag", [("E", 6, "identity"), ("A", 5, "flip"),
                                             ("D", 4, "triality"), ("B", 3, "identity")])
def test_coset_indices_refuse_a_dropped_generator(family, rank, tag):
    # a zero row is the identity in place of generator k
    aut, _, _, _, rows = coset_inputs(family, rank, tag)
    zero = (0,) * len(rows)
    for k in range(len(rows)):
        dropped = rows[:k] + (zero,) + rows[k + 1:]
        with pytest.raises(ValueError, match="do not multiply to the group order"):
            coset_indices(dropped, folded_order(aut))


@pytest.mark.parametrize("family,rank,tag", [("A", 5, "identity"), ("E", 6, "flip"),
                                             ("D", 4, "triality")])
def test_coset_indices_stop_at_the_cap(family, rank, tag):
    # the searches are bounded by the expected group order, which every
    # index divides: an order below the largest index stops its search
    aut, _, _, _, rows = coset_inputs(family, rank, tag)
    largest = max(coset_indices(rows, folded_order(aut))[0])
    assert largest < folded_order(aut)
    with pytest.raises(ValueError, match="do not multiply to the group order"):
        coset_indices(rows, largest)
    with pytest.raises(ValueError, match=f"functional orbit passed {largest - 1} elements"):
        coset_indices(rows, largest - 1)


def test_compute_never_calls_the_closure(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("breadth-first closure on the pipeline path")

    for module in (cli, exact, report, rootsys, twist, weyl):
        assert not hasattr(module, "close_permutations"), module.__name__
    monkeypatch.setattr(oracle, "close_permutations", refuse)
    # only the pipeline path: --check closes all of W by design
    for family, rank, tag in [("G", 2, "identity"), ("A", 4, "flip"), ("D", 4, "triality"),
                              ("E", 6, "flip"), ("B", 4, "identity")]:
        rpt = compute(TwistSpec(CartanType(family, rank), tag))
        assert rpt.closed_form is not None
    with pytest.raises(AssertionError, match="breadth-first closure"):
        compute(TwistSpec(CartanType("G", 2), run_oracle=True))


def test_e6_identity_memory_stays_below_the_element_store():
    # a closure of W(E6) keeps 51840 permutations of 72 roots in a tuple
    # and a set, 8.2 MB of traced allocations; compute() keeps a few
    # orbits of functionals on the fixed subspace
    tracemalloc.start()
    try:
        rpt = compute(TwistSpec(CartanType("E", 6)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rpt.stabilizer_order == 51840
    assert peak < 2 * 2**20


@pytest.mark.parametrize("family,rank,tag", TWISTED)
def test_wsigma_agrees_with_full_enumeration(family, rank, tag):
    rs = build_root_system(CartanType(family, rank))
    aut = make_automorphism(rs, tag)
    fold = folded_root_system(aut)
    action, generators, wsigma = wsigma_of(rs, aut)

    # the closure of Steinberg's generators is W^sigma as defined: the
    # elements of W that preserve the fixed subspace
    stab = fixed_space_stabilizer_perms(WeylPermutationGroup(rs), aut.simple_perm)
    assert set(wsigma) == set(stab)

    # the two element sets are equal, so one restricted group, built from the
    # enumerated stabilizer, serves both the closure and the reference
    restricted = restricted_fixed_space_group(action, aut.simple_perm, stab)
    assert len(restricted) == len(wsigma)  # the restriction is faithful

    buckets = fixed_space_charpoly_buckets(action, aut.simple_perm, wsigma)
    assert buckets == restricted.charpoly_buckets

    # the fold certified the walked rows, so the report says W^sigma
    # preserves the folded roots: every element of it does
    assert fold.rows == steinberg_rows(rs.cartan_type, aut.simple_perm)
    roots = mirrored(fold.folded_roots)
    found = set(roots)
    # the fixed-space matrices are integers: no scalar normalization needed
    assert all(dense_image(g, v) in found for g in restricted.elements for v in roots)


@pytest.mark.parametrize("family,rank,tag", TWISTED[:4] + TWISTED[-3:])
def test_steinberg_generators_commute_with_sigma(family, rank, tag):
    rs = build_root_system(CartanType(family, rank))
    aut = make_automorphism(rs, tag)
    action = RootPermutationAction(rs)
    generators = action.steinberg_generators(aut.simple_perm)
    assert len(generators) == len(aut.simple_orbits)
    sigma = root_permutation(aut)
    for w in generators:
        assert bytes(w[i] for i in w) == bytes(range(len(w)))  # w_O is an involution
        assert all(w[sigma[i]] == sigma[w[i]] for i in range(len(w)))


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 4), ("G", 2), ("F", 4)])
def test_identity_twist_is_the_full_weyl_group(family, rank):
    rs = build_root_system(CartanType(family, rank))
    aut = make_automorphism(rs, "identity")
    weyl = WeylPermutationGroup(rs)
    assert RootPermutationAction(rs).steinberg_generators(aut.simple_perm) == \
        weyl.simple_reflections
    # the definition keeps every element, as its lattice matrix
    group = wsigma_by_definition(aut)
    assert group.elements == weyl.to_matrix_group().elements
    assert fixed_space_charpoly_buckets(weyl, aut.simple_perm, weyl.elements) == \
        group.charpoly_buckets


def test_preservation_check_rejects_a_foreign_generator():
    # the fold certificate is the preservation check: rows that pass it are
    # the folded type's simple reflections, and no others pass
    aut, _, _, _, rows = coset_inputs("A", 3, "flip")
    fold = folded_root_system(aut)
    check_folded_roots(fold.folded_roots, rows, fold.folded_type)
    stretch = (1, 0)  # v_0 -> 2 v_0: row 0 of ((2, 0), (0, 1)) - 1
    with pytest.raises(ValueError, match="folded Cartan matrix does not match C2"):
        check_folded_roots(fold.folded_roots, (stretch,) + rows[1:], fold.folded_type)
    with pytest.raises(ValueError, match="wrong dimension"):
        check_folded_roots(fold.folded_roots, ((1,),), fold.folded_type)


@pytest.mark.parametrize("foreign", [
    (0, (1, 0, 0)),  # a stretch of the first coordinate sends alpha_1 to 2 alpha_1
    (2, (0, 1, -2)),  # A3's column at B3's short node sends alpha_2 + 2 alpha_3 off
])
def test_preservation_check_rejects_non_symmetries(foreign):
    # B3 has no diagram symmetry, and its folding is itself
    aut, _, _, _, rows = coset_inputs("B", 3, "identity")
    fold = folded_root_system(aut)
    k, row = foreign
    assert row not in rows
    check_folded_roots(fold.folded_roots, rows, fold.folded_type)
    with pytest.raises(ValueError, match="folded Cartan matrix does not match B3"):
        check_folded_roots(fold.folded_roots, rows[:k] + (row,) + rows[k + 1:],
                           fold.folded_type)
    # a short row, alone or among full ones, is refused before it is read
    for short in ((row[:2],), rows[:k] + (row[:2],) + rows[k + 1:]):
        with pytest.raises(ValueError, match="wrong dimension"):
            check_folded_roots(fold.folded_roots, short, fold.folded_type)


def test_a9_flip_without_full_enumeration():
    # |W(A9)| = 3628800; W^sigma = W(C5) has 3840 elements
    start = time.time()
    rpt = compute(TwistSpec(CartanType("A", 9), "flip"))
    assert time.time() - start < 10
    assert rpt.folded_type == CartanType("C", 5)
    assert rpt.stabilizer_order == rpt.restricted_order == 3840
    assert rpt.series == expected_series((2, 4, 6, 8, 10))


def test_twisted_cases_never_enumerate_all_of_w(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("full Weyl enumeration")

    monkeypatch.setattr(WeylPermutationGroup, "__init__", refuse)
    # only the pipeline path: --check enumerates W by design
    for family, rank, tag in [("D", 5, "flip"), ("D", 4, "triality"), ("A", 4, "flip")]:
        rpt = compute(TwistSpec(CartanType(family, rank), tag))
        assert rpt.preserves_folded
    with pytest.raises(AssertionError, match="full Weyl enumeration"):
        compute(TwistSpec(CartanType("A", 4), "flip", run_oracle=True))


ORACLE_NOTE = "oracle: brute-force invariant dimensions match the series through total degree"


@pytest.mark.parametrize("family,rank,tag", [("A", 2, "identity"), ("A", 3, "flip")])
@pytest.mark.parametrize("wrong", ["raised", "dropped"])
def test_check_catches_a_wrong_series(family, rank, tag, wrong, monkeypatch, capsys):
    # a coefficient the count finds zero, raised, is caught by the loop
    # over the series; one it finds nonzero, dropped, by the loop over the
    # count
    solomon = report.solomon_series

    def wrong_series(ds, truncation):
        coefficients = dict(solomon(ds, truncation).coefficients)
        key = (0, 1) if wrong == "raised" else (0, 0)
        coefficients[key] = 1 - coefficients.get(key, 0)
        return exact.BigradedSeries(truncation, coefficients)

    monkeypatch.setattr(report, "solomon_series", wrong_series)
    t = CartanType(family, rank)
    compute(TwistSpec(t, tag, truncation=9))  # the pipeline never reads the bigraded series
    with pytest.raises(ValueError, match="oracle mismatch at bidegree"):
        compute(TwistSpec(t, tag, truncation=9, run_oracle=True))
    args = ["--type", family, "--rank", str(rank), "--auto", tag, "--truncate", "9"]
    assert cli.main(args) == 0
    assert cli.main(args + ["--check"]) == 1
    assert "error: oracle mismatch at bidegree" in capsys.readouterr().err


@pytest.mark.parametrize("family,rank,tag", [("A", 2, "flip"), ("A", 4, "flip"),
                                             ("A", 6, "flip"), ("D", 4, "triality")])
def test_check_takes_wsigma_from_its_definition(family, rank, tag, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Steinberg's generators under --check")

    monkeypatch.setattr(RootPermutationAction, "steinberg_generators", refuse)
    rpt = compute(TwistSpec(CartanType(family, rank), tag, truncation=6, run_oracle=True))
    assert rpt.notes[-1] == f"{ORACLE_NOTE} 6"


def test_check_ignores_the_element_cap(monkeypatch):
    # |W^sigma| = 48 passes the cap; the enumerated W(A5) has 720 elements,
    # bounded by the oracle's dimension guard instead
    monkeypatch.setattr(weyl, "DEFAULT_ELEMENT_CAP", 48)
    spec = TwistSpec(CartanType("A", 5), "flip", truncation=6, run_oracle=True)
    assert compute(spec).notes[-1] == f"{ORACLE_NOTE} 6"


def test_the_oracle_keeps_its_own_cap(monkeypatch):
    # the references close groups up to ORACLE_ELEMENT_CAP, whatever element
    # cap compute() reads: W(A3) is enumerated with the pipeline's cap at 10
    monkeypatch.setattr(weyl, "DEFAULT_ELEMENT_CAP", 10)
    assert len(WeylPermutationGroup(build_root_system(CartanType("A", 3)))) == 24
    assert oracle.ORACLE_ELEMENT_CAP == 10**7
    assert not hasattr(oracle, "DEFAULT_ELEMENT_CAP")
    with pytest.raises(GroupTooLargeError, match="Weyl group of order 24 exceeds the cap 23"):
        WeylPermutationGroup(build_root_system(CartanType("A", 3)), cap=23)

