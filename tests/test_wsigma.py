"""W^sigma from Steinberg generators, checked against full enumeration.

The pipeline never enumerates all of W: it closes the longest parabolic
elements w_O, one per sigma-orbit O of simple nodes, into W^sigma and
buckets it by power traces.  These tests enumerate all of W for every
twisted case of the acceptance matrix and compare: the element set with
the fixed-subspace stabilizer, the restricted image with W^sigma, the
power-trace buckets with the Berkowitz buckets, and the generator-only
preservation check with the exhaustive one.
"""

import time

import pytest

from twistloop.exact import mat_vec
from twistloop.report import TwistSpec, compute
from twistloop.rootsys import CartanType, build_root_system
from twistloop.twist import (folded_root_system, make_automorphism,
                             wsigma_preserves_folded)
from twistloop.oracle import (WeylPermutationGroup, fixed_space_stabilizer_perms,
                              restricted_fixed_space_group)
from twistloop.weyl import (RootPermutationAction, close_permutations,
                            fixed_space_charpoly_buckets)

from test_acceptance import expected_series

TWISTED = ([("A", r, "flip") for r in range(2, 9)] +
           [("D", n, "flip") for n in range(2, 7)] +
           [("E", 6, "flip"), ("D", 4, "triality"), ("D", 4, "triality2")])


def wsigma_of(rs, aut):
    action = RootPermutationAction(rs)
    generators = action.steinberg_generators(aut.simple_perm)
    return action, generators, close_permutations(generators, 10**7)


@pytest.mark.parametrize("family,rank,tag", TWISTED)
def test_wsigma_agrees_with_full_enumeration(family, rank, tag):
    rs = build_root_system(CartanType(family, rank))
    aut = make_automorphism(rs, tag)
    fold = folded_root_system(aut)
    action, generators, wsigma = wsigma_of(rs, aut)

    weyl = WeylPermutationGroup(rs)
    stab = fixed_space_stabilizer_perms(weyl, aut.simple_perm)
    assert len(set(wsigma)) == len(wsigma)
    assert set(wsigma) == set(stab)

    restricted = restricted_fixed_space_group(weyl, aut.simple_perm, wsigma)
    assert len(restricted) == len(wsigma)  # the restriction is faithful

    oracle = restricted_fixed_space_group(weyl, aut.simple_perm, stab)
    buckets = fixed_space_charpoly_buckets(action, aut.simple_perm, wsigma)
    assert buckets == oracle.charpoly_buckets

    on_generators = wsigma_preserves_folded(
        action.fixed_space_matrices(aut.simple_perm, generators), fold)
    roots = set(fold.folded_roots)
    exhaustive = all(mat_vec(g, v) in roots
                     for g in oracle.elements for v in fold.folded_roots)
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
    assert wsigma == weyl.elements
    assert fixed_space_charpoly_buckets(action, aut.simple_perm, wsigma) == \
        weyl.to_matrix_group().charpoly_buckets


def test_preservation_check_rejects_a_foreign_generator():
    rs = build_root_system(CartanType("A", 3))
    aut = make_automorphism(rs, "flip")
    fold = folded_root_system(aut)
    action, generators, _ = wsigma_of(rs, aut)
    matrices = action.fixed_space_matrices(aut.simple_perm, generators)
    assert wsigma_preserves_folded(matrices, fold)
    stretch = ((2, 0), (0, 1))
    assert not wsigma_preserves_folded(matrices + (stretch,), fold)
    with pytest.raises(ValueError):
        wsigma_preserves_folded((((1,),),), fold)


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
