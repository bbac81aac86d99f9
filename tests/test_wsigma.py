"""W^sigma from Steinberg generators, checked against full enumeration.

The pipeline enumerates no group and permutes no root: it walks the
longest parabolic elements w_O, one per sigma-orbit O of simple nodes,
on their images of the simple roots and keeps one row of each on the
fixed subspace, and takes W^sigma's order from the coset indices along
the chain of subgroups they span, each the size of an orbit of a
coordinate functional there.  The oracle walks the same elements over
root permutations, whose dense matrices the rows must match, finds
coset representatives by a search over those permutations,
whose counts the indices must equal, streams W^sigma as products of
them and buckets each element by power traces.  These tests enumerate W
for every twisted case of the acceptance matrix (A_n and D_n flips from
their classical (signed) permutations, the others by closing all of W)
and compare: the element set with the centralizer or fixed-subspace
stabilizer, the restricted image with W^sigma, the power-trace buckets
with the Berkowitz buckets, and the generator-only preservation check
with the exhaustive one.  The stream itself is compared with the
breadth-first closure of the same generators.
"""

import time
import tracemalloc
from operator import mul

import pytest

from twistloop import cli, exact, oracle, report, rootsys, twist, weyl
from twistloop.report import TwistSpec, compute
from twistloop.rootsys import CartanType, build_root_system, cartan_from_gram, weyl_order
from twistloop.twist import (expected_folded_type, folded_gram, folded_root_system,
                             make_automorphism, wsigma_preserves_folded)
from twistloop.oracle import (RootPermutationAction, WeylPermutationGroup,
                              classical_wsigma_perms, close_permutations,
                              fixed_space_charpoly_buckets, fixed_space_stabilizer_perms,
                              restricted_fixed_space_group, wsigma_elements)
from twistloop.weyl import GroupTooLargeError, coset_indices, steinberg_rows

from test_acceptance import expected_series
from test_rootsys import ALL_TYPES

TWISTED = ([("A", r, "flip") for r in range(2, 9)] +
           [("D", n, "flip") for n in range(2, 7)] +
           [("E", 6, "flip"), ("D", 4, "triality"), ("D", 4, "triality2")])


STREAMED = ([(f, r, "identity") for f, r in ALL_TYPES
             if weyl_order(CartanType(f, r)) <= 10**5] + TWISTED)


def folded_order(aut):
    return weyl_order(expected_folded_type(aut.base.cartan_type, aut.tag))


def wsigma_of(rs, aut):
    action = RootPermutationAction(rs)
    generators = action.steinberg_generators(aut.simple_perm)
    stream = wsigma_elements(action, aut.simple_perm, generators,
                             folded_order(aut), 10**7)
    return action, generators, tuple(stream)


@pytest.mark.parametrize("family,rank,tag", STREAMED)
def test_stream_is_the_closure_of_the_generators(family, rank, tag):
    rs = build_root_system(CartanType(family, rank))
    aut = make_automorphism(rs, tag)
    _, generators, wsigma = wsigma_of(rs, aut)
    assert len(wsigma) == folded_order(aut)
    assert len(set(wsigma)) == len(wsigma)  # each element once
    assert set(wsigma) == set(close_permutations(generators, 10**7))


@pytest.mark.parametrize("family,rank,tag", [("E", 6, "identity"), ("A", 5, "flip"),
                                             ("D", 4, "triality")])
def test_wrong_generator_set_is_refused_before_the_walk(family, rank, tag):
    rs = build_root_system(CartanType(family, rank))
    aut = make_automorphism(rs, tag)
    action = RootPermutationAction(rs)
    generators = action.steinberg_generators(aut.simple_perm)
    dropped = generators[:-1]
    duplicated = generators[:1] + generators[:-1]
    for wrong in (dropped, duplicated):
        with pytest.raises(ValueError, match="do not multiply to the group order"):
            wsigma_elements(action, aut.simple_perm, wrong, folded_order(aut), 10**7)


def test_coset_search_stops_at_the_cap():
    rs = build_root_system(CartanType("A", 5))
    aut = make_automorphism(rs, "identity")
    action = RootPermutationAction(rs)
    generators = action.steinberg_generators(aut.simple_perm)
    # the last coset search of W(A5) over W(A4) finds 6 representatives
    wsigma_elements(action, aut.simple_perm, generators, 720, 6)
    with pytest.raises(GroupTooLargeError):
        wsigma_elements(action, aut.simple_perm, generators, 720, 5)


def coset_inputs(family, rank, tag):
    """The oracle's byte walk of the generators and their dense matrices
    on the fixed subspace, and the pipeline's rows walked from the Cartan
    matrix."""
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
        for v in fold.folded_roots:
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
    g_k of the oracle, built from its byte walk: row k of g_k - 1 is row k, every other row of g_k - 1 is zero,
    and, as s_k(v) = v - <v, beta_k^vee> beta_k, row k is minus column k
    of the folded Cartan matrix, which ties the W^sigma stage to the fold."""
    assert len(rows) == len(matrices)
    for k, g in enumerate(matrices):
        moved = [tuple(a - (i == j) for j, a in enumerate(row)) for i, row in enumerate(g)]
        assert moved[k] == rows[k], k
        assert all(not any(row) for i, row in enumerate(moved) if i != k), k
    assert rows == tuple(tuple(-a for a in col) for col in zip(*cartan_from_gram(gram)))


@pytest.mark.parametrize("family,rank,tag", sorted(set(STREAMED + LOWERING)))
def test_reflection_rows_are_the_folded_cartan_columns(family, rank, tag):
    aut, _, _, matrices, rows = coset_inputs(family, rank, tag)
    assert_rows_are_the_reflections(matrices, rows, folded_gram(aut))


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
        assert_rows_are_the_reflections(matrices, rows, folded_gram(aut))


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
    _, _, _, matrices, rows = coset_inputs(family, rank, tag)
    dim = len(matrices)
    units = [tuple(int(i == k) for i in range(dim)) for k in range(dim)]
    for k in range(dim):
        assert list(weyl._orbit_search(k, rows[:k + 1], 10**7)) == \
            full_orbit(units[k], matrices[:k + 1])
    full = sorted((full_orbit(u, matrices) for u in units), key=len)  # stable: ties by node
    assert list(weyl._coordinate_orbits(rows, 10**7)) == full


@pytest.mark.parametrize("family,rank,tag", STREAMED + [
    ("E", 7, "identity"), ("D", 8, "identity"), ("A", 14, "flip")])
def test_coset_indices_are_the_transversal_sizes(family, rank, tag):
    aut, action, generators, _, rows = coset_inputs(family, rank, tag)
    order = folded_order(aut)
    indices = coset_indices(rows, order)
    transversals = oracle.wsigma_transversals(action, aut.simple_perm, generators,
                                              order, 10**7)
    assert indices == tuple(map(len, transversals))


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
    largest = max(coset_indices(rows, folded_order(aut)))
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
    # the --check oracle is run where its brute-force count is cheap
    for family, rank, tag, check in [("G", 2, "identity", True), ("A", 4, "flip", True),
                                     ("D", 4, "triality", True), ("E", 6, "flip", False),
                                     ("B", 4, "identity", False)]:
        rpt = compute(TwistSpec(CartanType(family, rank), tag, run_oracle=check))
        assert rpt.closed_form is not None


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

    if family in "AD" and tag == "flip":
        # the classical (signed) permutations enumerate W(A_n) and W(D_n)
        # faster than a closure of all of W
        stab = classical_wsigma_perms(aut)
    else:
        stab = fixed_space_stabilizer_perms(WeylPermutationGroup(rs), aut.simple_perm)
    assert len(set(wsigma)) == len(wsigma)
    assert set(wsigma) == set(stab)

    # the two element sets are equal, so one restricted group, built from the
    # enumerated stabilizer, serves both the stream and the reference
    restricted = restricted_fixed_space_group(action, aut.simple_perm, stab)
    assert len(restricted) == len(wsigma)  # the restriction is faithful

    buckets = fixed_space_charpoly_buckets(action, aut.simple_perm, wsigma)
    assert buckets == restricted.charpoly_buckets

    on_generators = wsigma_preserves_folded(
        steinberg_rows(rs.cartan_type, aut.simple_perm), fold)
    roots = set(fold.folded_roots)
    # the fixed-space matrices are integers: no scalar normalization needed
    exhaustive = all(dense_image(g, v) in roots
                     for g in restricted.elements for v in fold.folded_roots)
    assert exhaustive
    assert on_generators == exhaustive


@pytest.mark.parametrize("family,rank,tag", TWISTED[:4] + TWISTED[-3:])
def test_steinberg_generators_commute_with_sigma(family, rank, tag):
    rs = build_root_system(CartanType(family, rank))
    aut = make_automorphism(rs, tag)
    action = RootPermutationAction(rs)
    generators = action.steinberg_generators(aut.simple_perm)
    assert len(generators) == len(aut.simple_orbits)
    sigma = aut.root_perm
    for w in generators:
        assert bytes(w[i] for i in w) == bytes(range(len(w)))  # w_O is an involution
        assert all(w[sigma[i]] == sigma[w[i]] for i in range(len(w)))


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 4), ("G", 2), ("F", 4)])
def test_identity_twist_is_the_full_weyl_group(family, rank):
    rs = build_root_system(CartanType(family, rank))
    aut = make_automorphism(rs, "identity")
    action, generators, wsigma = wsigma_of(rs, aut)
    weyl = WeylPermutationGroup(rs)
    assert generators == weyl.simple_reflections
    assert len(wsigma) == len(weyl.elements)
    assert set(wsigma) == set(weyl.elements)  # the stream is not in BFS order
    assert fixed_space_charpoly_buckets(action, aut.simple_perm, wsigma) == \
        weyl.to_matrix_group().charpoly_buckets


def test_preservation_check_rejects_a_foreign_generator():
    aut, _, _, _, rows = coset_inputs("A", 3, "flip")
    fold = folded_root_system(aut)
    assert wsigma_preserves_folded(rows, fold)
    stretch = (1, 0)  # v_0 -> 2 v_0: row 0 of ((2, 0), (0, 1)) - 1
    assert not wsigma_preserves_folded((stretch,) + rows[1:], fold)
    with pytest.raises(ValueError):
        wsigma_preserves_folded(((1,),), fold)


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
    assert wsigma_preserves_folded(rows, fold)
    assert wsigma_preserves_folded(((0, 0, 0),), fold)  # the identity
    assert not wsigma_preserves_folded(rows[:k] + (row,) + rows[k + 1:], fold)
    with pytest.raises(ValueError, match="wrong dimension"):
        wsigma_preserves_folded((row[:2],), fold)


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
        raise AssertionError("full Weyl enumeration on the pipeline path")

    monkeypatch.setattr(WeylPermutationGroup, "__init__", refuse)
    # the --check oracle also stays on W^sigma; it is run where its
    # brute-force count is cheap (fixed subspace of dimension two)
    for family, rank, tag, oracle in [("D", 5, "flip", False), ("D", 4, "triality", True),
                                      ("A", 4, "flip", True)]:
        rpt = compute(TwistSpec(CartanType(family, rank), tag, run_oracle=oracle))
        assert rpt.preserves_folded
