import time
from fractions import Fraction
from itertools import permutations
from operator import mul

import pytest

from twistloop import rootsys, twist, weyl
from twistloop.oracle import (MAX_BYTE_ROOTS, RootPermutationAction, WeylPermutationGroup,
                              ambient_roots, ambient_vector,
                              automorphism_matrix, cartan_from_gram, classify_folded_roots,
                              fixed_space_matrices, fixed_space_stabilizer_perms,
                              fixed_subspace,
                              identity_matrix, mat_mul, mat_vec, orbit_sum_gram,
                              orbit_sum_projection, projected_gram, rank,
                              restricted_fixed_space_group, root_permutation,
                              simple_root_vectors, vec_add, vec_dot, vec_scale, vector)
from twistloop.report import TwistSpec, _chain_rows, compute
from twistloop.rootsys import (_RANK_BOUNDS, FAMILIES, CartanType, build_root_system,
                               cartan_matrix, root_count)
from twistloop.twist import (AUTOMORPHISM_TAGS, check_folded_roots, check_tag,
                             expected_folded_type, fixed_group_info, folded_root_system,
                             make_automorphism, orbit_sizes, positive_orbit_sizes,
                             project_roots, twist_rows)
from twistloop.weyl import _perm_orbits, steinberg_rows

from conftest import mirrored
from test_acceptance import A_FLIP_RANKS, D_FLIP_RANKS, SOLOMON_TYPES
from test_properties import IDENTITIES, TWISTS
from test_rootsys import ALL_TYPES, CROSS_CHECKED
from test_wsigma import TWISTED, coset_inputs


def permutes_folded_roots(matrices, fold):
    """Dense reference for what the fold certificate implies: every matrix
    sends every folded root to a folded root."""
    roots = set(mirrored(fold.folded_roots))
    return all(tuple(sum(map(mul, row, v)) for row in g) in roots
               for g in matrices for v in roots)


def read_chain_rows(folded):
    """The rows compute() certifies a twist on: the folded type's, read off
    its Cartan matrix, in the coset chain's order."""
    return _chain_rows(twist_rows(folded), range(folded.rank), folded)


def gram_rows(gram):
    """The rows of the simple reflections of a base with this Gram matrix,
    s_k(v) = v + (row_k . v) e_k: row k is minus column k of its Cartan
    matrix."""
    return tuple(tuple(-a for a in col) for col in zip(*cartan_from_gram(gram)))


def dense_rows(matrices):
    """Row k of g_k - 1 for dense matrices g_k on the fixed subspace."""
    return tuple(tuple(a - (j == k) for j, a in enumerate(g[k]))
                 for k, g in enumerate(matrices))


def ambient_projection_set(aut):
    """Independent computation of the projected roots as ambient vectors:
    average each root over the automorphism's matrix powers."""
    m = automorphism_matrix(aut)
    out = set()
    for v in ambient_roots(aut.base.cartan_type):
        total = v
        w = v
        for _ in range(aut.order - 1):
            w = mat_vec(m, w)
            total = vec_add(total, w)
        out.add(vec_scale(Fraction(1, aut.order), total))
    return out


class TestMakeAutomorphism:
    def test_identity_any_type(self):
        for fam, rk in [("A", 3), ("B", 2), ("G", 2)]:
            aut = make_automorphism(build_root_system(CartanType(fam, rk)), "identity")
            assert aut.order == 1

    def test_flip_on_a_series(self):
        rs = build_root_system(CartanType("A", 3))
        aut = make_automorphism(rs, "flip")
        assert aut.order == 2
        # paper coordinates: e_i - e_j maps to e_{n+1-j} - e_{n+1-i}
        for v in ambient_roots(rs.cartan_type):
            i = v.index(1)
            j = v.index(-1)
            expected = [0] * 4
            expected[3 - j], expected[3 - i] = 1, -1
            assert mat_vec(automorphism_matrix(aut), v) == tuple(expected)

    def test_triality_has_order_three(self):
        rs = build_root_system(CartanType("D", 4))
        s = make_automorphism(rs, "triality")
        s2 = make_automorphism(rs, "triality2")
        assert s.order == 3 and s2.order == 3
        assert s.simple_perm != s2.simple_perm
        # composing the permutations gives the inverse pair
        comp = tuple(s.simple_perm[i] for i in s2.simple_perm)
        assert comp == (0, 1, 2, 3)

    @pytest.mark.parametrize("family,rank,tag", [("A", 1, "flip"), ("B", 3, "flip"),
                                                 ("C", 4, "flip"), ("F", 4, "flip"),
                                                 ("G", 2, "flip"), ("D", 5, "triality"),
                                                 ("E", 7, "flip"), ("E", 8, "flip")])
    def test_unsupported_specs_rejected(self, family, rank, tag):
        rs = build_root_system(CartanType(family, rank))
        with pytest.raises(ValueError):
            make_automorphism(rs, tag)

    def test_explicit_permutation_validated(self):
        rs = build_root_system(CartanType("A", 4))
        aut = make_automorphism(rs, (3, 2, 1, 0))
        assert aut.tag == "flip"
        with pytest.raises(ValueError):
            make_automorphism(rs, (1, 0, 2, 3))  # breaks the Cartan matrix

    def test_checked_on_the_dynkin_diagram(self, monkeypatch):
        # the twist is read off the diagram's lengths and edges: no Cartan
        # matrix is built for it
        rs = build_root_system(CartanType("E", 6))

        def refuse(t):
            raise AssertionError("a dense matrix built to check the twist")

        monkeypatch.setattr(twist, "cartan_matrix", refuse)
        monkeypatch.setattr(rootsys, "cartan_matrix", refuse)
        assert make_automorphism(rs, "flip").simple_perm == (5, 1, 4, 3, 2, 0)
        with pytest.raises(ValueError, match="does not preserve the Cartan matrix"):
            make_automorphism(rs, (1, 0, 2, 3, 4, 5))

    @pytest.mark.parametrize("perm,message", [
        ((2, 1), "permutation has 2 images"),
        ((3, 1, 0), "permutation image 3 out of range 0..2"),
        ((-1, 0, 1), "permutation image -1 out of range 0..2"),
        ((0, 0, 2), "permutation is not a bijection: 0 named more than once"),
    ])
    def test_explicit_permutation_checked_before_classification(self, perm, message):
        rs = build_root_system(CartanType("A", 3))
        with pytest.raises(ValueError, match=message):
            make_automorphism(rs, perm)

    def test_repeated_images_found_in_one_pass(self):
        # counting each image's repeats scanned all the images once per image
        n = 10**5
        images = list(range(n))
        images[-2:] = [5, 0]
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^permutation is not a bijection: "
                                             r"0, 5 named more than once$"):
            twist.check_simple_perm(images, n)
        assert time.perf_counter() - start < 0.5

    def test_positive_system_preserved(self):
        for fam, rk, tag in [("A", 4, "flip"), ("D", 5, "flip"),
                             ("D", 4, "triality"), ("E", 6, "flip")]:
            rs = build_root_system(CartanType(fam, rk))
            sigma = root_permutation(make_automorphism(rs, tag))
            for c, image in zip(rs.roots, sigma):
                if min(c) >= 0:
                    assert min(rs.roots[image]) >= 0


def admitted_within_byte_roots():
    """Every (family, rank, tag) with a diagram symmetry of that tag and at
    most MAX_BYTE_ROOTS roots, the oracle's byte limit; the root count
    grows with the rank."""
    cases = []
    for family in FAMILIES:
        lo, hi = _RANK_BOUNDS[family]
        for rank in range(lo, (hi or MAX_BYTE_ROOTS) + 1):
            t = CartanType(family, rank)
            if root_count(t) > MAX_BYTE_ROOTS:
                break
            for tag in AUTOMORPHISM_TAGS:
                try:
                    check_tag(t, tag)
                except ValueError:  # no such twist of this type
                    continue
                cases.append((family, rank, tag))
    return cases


class TestOrbits:
    def test_identity_singletons(self):
        aut = make_automorphism(build_root_system(CartanType("A", 2)), "identity")
        orbits = _perm_orbits(root_permutation(aut))
        assert len(orbits) == 6
        assert all(len(o) == 1 for o in orbits)
        assert positive_orbit_sizes(aut) == (1, 1, 1)

    def test_counts_match_the_root_permutation(self, monkeypatch):
        # sigma's fixed positive roots give every orbit size; the oracle
        # permutes the roots through an index and closes each orbit.  The
        # report's criterion counts them, with the element cap past every case
        monkeypatch.setattr(weyl, "DEFAULT_ELEMENT_CAP", 10**14)
        cases = admitted_within_byte_roots()
        assert len(cases) == 79
        for family, rank, tag in cases:
            rs = build_root_system(CartanType(family, rank))
            # the positive roots are the second half of the sorted roots
            assert rs.roots[:len(rs.roots) // 2] == tuple(c for c in rs.roots if min(c) < 0)
            aut = make_automorphism(rs, tag)
            orbits = _perm_orbits(root_permutation(aut))
            want = tuple(sorted(len(o) for o in orbits if min(rs.roots[o[0]]) >= 0))
            assert positive_orbit_sizes(aut) == want, (family, rank, tag)
            # compute() derives the sizes from the types
            rpt = compute(TwistSpec(rs.cartan_type, tag, truncation=0))
            assert rpt.positive_orbit_sizes == want == \
                orbit_sizes(rs.cartan_type, rpt.folded_type)
            assert rpt.orbit_criterion.orbit_count == len(orbits), (family, rank, tag)

    def test_derived_orbits_are_the_measured_ones(self):
        # the A2-A30 flips, the D4-D30 flips, both trialities and the E6
        # flip: sigma's orbit sizes follow from the folded type and the
        # order of sigma, the orbits are the positive projections, and the
        # indivisible ones are the closure of the folded Cartan matrix
        # (folded_root_system compares them); the walked rows it matches
        # to the folded type's nodes are, in the coset chain's order, the
        # rows compute() reads off the folded Cartan matrix
        cases = ([("A", r, "flip") for r in range(2, 31)] +
                 [("D", r, "flip") for r in range(4, 31)] +
                 [("D", 4, "triality"), ("D", 4, "triality2"), ("E", 6, "flip")])
        assert len(cases) == 59
        for family, rank, tag in cases:
            t = CartanType(family, rank)
            aut = make_automorphism(build_root_system(t), tag)
            folded = expected_folded_type(t, tag)
            sizes = orbit_sizes(t, folded)
            assert sizes == positive_orbit_sizes(aut), (family, rank, tag)
            assert len(sizes) == len(project_roots(aut)), (family, rank, tag)
            fold = folded_root_system(aut)
            assert _chain_rows(fold.rows, fold.nodes, folded) == read_chain_rows(folded)

    def test_triality_positive_orbits(self):
        rs = build_root_system(CartanType("D", 4))
        aut = make_automorphism(rs, "triality")
        assert positive_orbit_sizes(aut) == (1, 1, 1, 3, 3, 3)

    def test_e6_flip_positive_orbits(self):
        rs = build_root_system(CartanType("E", 6))
        aut = make_automorphism(rs, "flip")
        assert len(positive_orbit_sizes(aut)) == 24

    def test_sizes_divide_order_and_cover(self):
        for fam, rk, tag in [("A", 5, "flip"), ("D", 4, "triality"), ("E", 6, "flip")]:
            rs = build_root_system(CartanType(fam, rk))
            aut = make_automorphism(rs, tag)
            orbits = _perm_orbits(root_permutation(aut))
            assert sum(len(o) for o in orbits) == len(rs.roots)
            assert all(aut.order % len(o) == 0 for o in orbits)
            assert all(aut.order % s == 0 for s in positive_orbit_sizes(aut))


class TestFixedSubspace:
    def test_flip_on_a3_is_the_e_plane(self):
        rs = build_root_system(CartanType("A", 3))
        aut = make_automorphism(rs, "flip")
        basis = fixed_subspace(aut)
        assert basis.dim == 2
        h = Fraction(1, 2)
        e1 = vector([h, 0, 0, -h])
        e2 = vector([0, h, -h, 0])
        # same span as (E1, E2)
        assert rank(basis.basis_vectors + (e1, e2)) == 2

    def test_triality_plane(self):
        rs = build_root_system(CartanType("D", 4))
        aut = make_automorphism(rs, "triality")
        assert fixed_subspace(aut).dim == 2

    def test_identity_spans_roots_only(self):
        # type A: the fixed space of the identity is the sum-zero hyperplane
        rs = build_root_system(CartanType("A", 2))
        aut = make_automorphism(rs, "identity")
        basis = fixed_subspace(aut)
        assert basis.dim == 2
        assert all(sum(v) == 0 for v in basis.basis_vectors)

    def test_vectors_are_fixed(self):
        for fam, rk, tag in [("A", 4, "flip"), ("D", 5, "flip"), ("E", 6, "flip")]:
            rs = build_root_system(CartanType(fam, rk))
            aut = make_automorphism(rs, tag)
            for v in fixed_subspace(aut).basis_vectors:
                assert mat_vec(automorphism_matrix(aut), v) == v


class TestProjection:
    def test_a3_flip_projects_onto_c2(self):
        rs = build_root_system(CartanType("A", 3))
        aut = make_automorphism(rs, "flip")
        h = Fraction(1, 2)
        e1 = vector([h, 0, 0, -h])
        e2 = vector([0, h, -h, 0])
        expected = set()
        for s1 in (1, -1):
            for s2 in (1, -1):
                expected.add(vec_add(vec_scale(s1, e1), vec_scale(s2, e2)))
            expected.add(vec_scale(2 * s1, e1))
            expected.add(vec_scale(2 * s1, e2))
        assert ambient_projection_set(aut) == expected

    def test_a4_flip_has_nonreduced_pattern(self):
        rs = build_root_system(CartanType("A", 4))
        aut = make_automorphism(rs, "flip")
        proj = ambient_projection_set(aut)
        doubled = sum(1 for v in proj if vec_scale(Fraction(1, 2), v) in proj)
        assert doubled == 4  # +-2E_1, +-2E_2 alongside +-E_1, +-E_2

    def test_identity_projects_to_roots(self):
        rs = build_root_system(CartanType("B", 2))
        aut = make_automorphism(rs, "identity")
        coords = mirrored(project_roots(aut))
        assert sum(mult for _, mult in coords) == len(rs.roots)
        assert all(mult == 1 for _, mult in coords)

    @pytest.mark.parametrize("family,rank", ALL_TYPES)
    def test_identity_projection_is_the_root_set_itself(self, family, rank):
        rs = build_root_system(CartanType(family, rank))
        aut = make_automorphism(rs, "identity")
        proj = mirrored(project_roots(aut))
        assert proj == tuple((c, 1) for c in rs.roots)
        # the orbit sums over one-node orbits, as a twisted case takes them
        sums = {}
        for c in rs.roots:
            v = tuple(sum(c[i] for i in orb) for orb in aut.simple_orbits)
            sums[v] = sums.get(v, 0) + 1
        assert proj == tuple(sorted(sums.items()))

    @pytest.mark.parametrize("family,rank", ALL_TYPES)
    def test_identity_fold_is_the_root_set_itself(self, family, rank):
        # the fold takes the positive roots themselves for sigma = identity,
        # and does not project them
        rs = build_root_system(CartanType(family, rank))
        assert folded_root_system(make_automorphism(rs, "identity")).folded_roots is rs.positive

    @pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4),
                                             ("G", 2), ("F", 4), ("E", 6)])
    def test_identity_fold_refuses_a_perturbed_row(self, family, rank, monkeypatch):
        # the identity fold skips the projection, so the certificate on the
        # rows is what catches one wrong entry of one Steinberg row
        t = CartanType(family, rank)
        aut = make_automorphism(build_root_system(t), "identity")
        rows = steinberg_rows(t, aut.simple_perm)
        for k in range(rank):
            for j in range(rank):
                for delta in (1, -1):
                    bad = tuple(tuple(x + delta if (a, b) == (k, j) else x
                                      for b, x in enumerate(row))
                                for a, row in enumerate(rows))
                    monkeypatch.setattr(twist, "steinberg_rows", lambda t, perm: bad)
                    with pytest.raises(ValueError, match=f"does not match {t}$"):
                        folded_root_system(aut)
        monkeypatch.setattr(twist, "steinberg_rows", lambda t, perm: rows)
        assert folded_root_system(aut).rows == rows

    @pytest.mark.parametrize("family,rank", CROSS_CHECKED + [(f, 40) for f in "ABCD"])
    def test_identity_rows_read_are_the_walked_rows(self, family, rank):
        # compute() reads the identity's rows off the Cartan matrix, row k
        # of s_k its column k negated; the walk of s_k must give them
        t = CartanType(family, rank)
        assert twist_rows(t) == steinberg_rows(t, tuple(range(rank)))

    def test_twisted_rows_read_are_the_walked_rows(self):
        # compute() reads every twist's rows off the folded type's Cartan
        # matrix; on the A2-A60 flips, the D2-D60 flips, the E6 flip and
        # both trialities the walk of Steinberg's w_O (one per sigma-orbit)
        # must give them, matched to the folded type's nodes, in the coset
        # chain's order.  No root is built.
        cases = ([("A", r, "flip") for r in range(2, 61)] +
                 [("D", r, "flip") for r in range(2, 61)] +
                 [("E", 6, "flip"), ("D", 4, "triality"), ("D", 4, "triality2")])
        assert len(cases) == 121
        for family, rank, tag in cases:
            t = CartanType(family, rank)
            perm, _ = twist.resolve_twist(t, tag)
            folded = expected_folded_type(t, tag)
            rows = steinberg_rows(t, perm)
            nodes = twist._match_cartan(twist._rows_cartan(rows), cartan_matrix(folded))
            assert nodes is not None, (family, rank, tag)
            assert _chain_rows(rows, nodes, folded) == read_chain_rows(folded), \
                (family, rank, tag)

    def test_multiplicities_account_for_all_roots(self):
        rs = build_root_system(CartanType("E", 6))
        aut = make_automorphism(rs, "flip")
        coords = mirrored(project_roots(aut))
        assert sum(mult for _, mult in coords) == 72
        assert len(coords) == 48


class TestFolding:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_d_flip_folds_to_odd_orthogonal(self, n):
        rs = build_root_system(CartanType("D", n))
        fold = folded_root_system(make_automorphism(rs, "flip"))
        assert fold.folded_type == CartanType("B", n - 1)
        assert len(mirrored(fold.folded_roots)) == 2 * (n - 1) ** 2

    def test_triality_folds_to_g2(self):
        rs = build_root_system(CartanType("D", 4))
        fold = folded_root_system(make_automorphism(rs, "triality"))
        assert fold.folded_type == CartanType("G", 2)
        assert len(mirrored(fold.folded_roots)) == 12

    def test_e6_folds_to_f4(self):
        rs = build_root_system(CartanType("E", 6))
        fold = folded_root_system(make_automorphism(rs, "flip"))
        assert fold.folded_type == CartanType("F", 4)
        assert len(mirrored(fold.folded_roots)) == 48

    @pytest.mark.parametrize("rank,expected", [(2, ("B", 1)), (3, ("C", 2)),
                                               (4, ("B", 2)), (5, ("C", 3)),
                                               (6, ("B", 3))])
    def test_a_flip_alternates(self, rank, expected):
        rs = build_root_system(CartanType("A", rank))
        fold = folded_root_system(make_automorphism(rs, "flip"))
        assert fold.folded_type == CartanType(*expected)

    def test_rank_matches_fixed_dimension(self):
        for fam, rk, tag in [("A", 5, "flip"), ("D", 5, "flip"),
                             ("D", 4, "triality"), ("E", 6, "flip")]:
            rs = build_root_system(CartanType(fam, rk))
            aut = make_automorphism(rs, tag)
            fold = folded_root_system(aut)
            assert fold.folded_type.rank == fixed_subspace(aut).dim

    def test_folded_roots_inside_projections(self):
        for fam, rk, tag in [("A", 4, "flip"), ("D", 4, "triality"), ("E", 6, "flip")]:
            rs = build_root_system(CartanType(fam, rk))
            aut = make_automorphism(rs, tag)
            proj = {v for v, _ in project_roots(aut)}
            assert set(folded_root_system(aut).folded_roots) <= proj

    def test_folded_check_rejects_a_wrong_set_or_type(self):
        rs = build_root_system(CartanType("E", 6))
        aut = make_automorphism(rs, "flip")
        fold = folded_root_system(aut)
        roots, rows = fold.folded_roots, fold.rows
        # the rows walked from the Cartan matrix are the reflections of the
        # projected simple roots, whose Gram matrix the oracle sums
        assert rows == gram_rows(projected_gram(aut))
        check_folded_roots(roots, rows, CartanType("F", 4))
        # the highest root goes: the set stays positive and keeps its simple
        # base, so only the comparison with F4's roots fails
        top = max(roots, key=sum)
        neg = tuple(-c for c in top)
        with pytest.raises(ValueError, match="not the root system of F4"):
            check_folded_roots([v for v in roots if v != top], rows, CartanType("F", 4))
        # its negative joins: the set is no longer the positive roots
        with pytest.raises(ValueError):
            check_folded_roots(sorted(roots + (neg,)), rows, CartanType("F", 4))
        for wrong in (CartanType("B", 4), CartanType("C", 4), CartanType("G", 2)):
            with pytest.raises(ValueError):
                check_folded_roots(roots, rows, wrong)
        # the orbit sums b_O = |O| beta_O as the base: F4 in the reverse
        # node order, whose roots are not the set
        with pytest.raises(ValueError, match="not the root system of F4"):
            check_folded_roots(roots, gram_rows(orbit_sum_gram(aut)), CartanType("F", 4))
        # a set missing a simple root
        unit = (0, 1, 0, 0)
        assert unit in roots
        with pytest.raises(ValueError, match="not the root system of F4"):
            check_folded_roots([v for v in roots if v != unit], rows, CartanType("F", 4))

    def test_folded_check_rejects_a_doubled_short_root(self):
        # A4 flip: the projections hold 2v next to each short root v of B2
        aut = make_automorphism(build_root_system(CartanType("A", 4)), "flip")
        fold = folded_root_system(aut)
        rows = fold.rows
        proj = {v for v, _ in mirrored(project_roots(aut))}
        short = [v for v in mirrored(fold.folded_roots) if tuple(2 * c for c in v) in proj]
        assert len(short) == 4
        # a positive short root doubled
        swapped = [tuple(2 * c for c in v) if v == short[-1] else v
                   for v in fold.folded_roots]
        with pytest.raises(ValueError, match="not the root system of B2"):
            check_folded_roots(swapped, rows, CartanType("B", 2))
        with pytest.raises(ValueError):
            check_folded_roots([v for v, _ in project_roots(aut)], rows, CartanType("B", 2))

    @pytest.mark.parametrize("family,rank,tag,folded", [("A", 5, "flip", "C3"),
                                                        ("B", 3, "identity", "B3")])
    def test_folded_check_rejects_transposed_rows(self, family, rank, tag, folded):
        # rows read as columns give the transposed Cartan matrix, the dual
        # type's: B and C swap
        fold = folded_root_system(make_automorphism(
            build_root_system(CartanType(family, rank)), tag))
        transposed = tuple(zip(*fold.rows))
        assert transposed != fold.rows
        with pytest.raises(ValueError, match=f"folded Cartan matrix does not match {folded}"):
            check_folded_roots(fold.folded_roots, transposed, fold.folded_type)


class TestCriteria:
    def test_triality_orbit_criterion(self):
        crit = compute(TwistSpec(CartanType("D", 4), "triality")).orbit_criterion
        assert crit.orbit_count == 12 and crit.folded_root_count == 12
        assert crit.holds

    def test_e6_orbit_criterion(self):
        crit = compute(TwistSpec(CartanType("E", 6), "flip")).orbit_criterion
        assert crit.orbit_count == 48 and crit.holds

    def test_a4_criterion_inconclusive(self):
        crit = compute(TwistSpec(CartanType("A", 4), "flip")).orbit_criterion
        assert crit.orbit_count == 12 and crit.folded_root_count == 8
        assert not crit.holds

    def test_wsigma_preserves_folded_small_cases(self):
        for fam, rk, tag in [("A", 3, "flip"), ("D", 4, "triality")]:
            rs = build_root_system(CartanType(fam, rk))
            aut = make_automorphism(rs, tag)
            fold = folded_root_system(aut)
            w = WeylPermutationGroup(rs)
            stab = fixed_space_stabilizer_perms(w, aut.simple_perm)
            restricted = restricted_fixed_space_group(w, aut.simple_perm, stab)
            assert permutes_folded_roots(restricted.elements, fold)
            # the fold certified the rows of the oracle's dense generators
            assert dense_rows(coset_inputs(fam, rk, tag)[3]) == fold.rows

    def test_identity_weyl_permutes_own_roots(self):
        rs = build_root_system(CartanType("A", 2))
        aut = make_automorphism(rs, "identity")
        fold = folded_root_system(aut)
        w = WeylPermutationGroup(rs)
        assert permutes_folded_roots(w.to_matrix_group().elements, fold)
        assert dense_rows(coset_inputs("A", 2, "identity")[3]) == fold.rows


class TestProjectionEquivariance:
    @pytest.mark.parametrize("family,rank,tag", [("A", 3, "flip"), ("A", 4, "flip"),
                                                 ("D", 4, "triality"), ("D", 5, "flip")])
    def test_projection_commutes_with_stabilizer(self, family, rank, tag):
        rs = build_root_system(CartanType(family, rank))
        aut = make_automorphism(rs, tag)
        w = WeylPermutationGroup(rs)
        stab = fixed_space_stabilizer_perms(w, aut.simple_perm)

        def projected(idx):
            # over the projected simple roots: the sums over each orbit
            return vector(sum(rs.roots[idx][i] for i in orb) for orb in aut.simple_orbits)

        projections = [projected(idx) for idx in range(len(rs.roots))]
        for elem in stab:
            m = restricted_fixed_space_group(w, aut.simple_perm, [elem]).elements[0]
            for idx in range(len(rs.roots)):
                assert mat_vec(m, projections[idx]) == projections[elem[idx]]


class TestAmbientReference:
    """The pipeline's coordinate permutations and projected-root data
    against the classical ambient realization in twistloop.oracle."""

    @pytest.mark.parametrize("family,rank,tag,perm", TWISTS + IDENTITIES,
                             ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else str(v))
    def test_root_permutation_matches_ambient_matrix(self, family, rank, tag, perm):
        t = CartanType(family, rank)
        rs = build_root_system(t)
        simple = simple_root_vectors(t)
        for spec in (tag, perm):
            aut = make_automorphism(rs, spec)
            m = automorphism_matrix(aut)
            for j, alpha in enumerate(simple):
                assert mat_vec(m, alpha) == simple[aut.simple_perm[j]]
            for c, image in zip(rs.roots, root_permutation(aut), strict=True):
                assert mat_vec(m, ambient_vector(t, c)) == \
                    ambient_vector(t, rs.roots[image])
            power = m
            for _ in range(aut.order - 1):
                assert power != identity_matrix(len(m))
                power = mat_mul(power, m)
            assert power == identity_matrix(len(m))

    @pytest.mark.parametrize("family,rank,tag", [("A", 4, "flip"), ("A", 5, "flip"),
                                                 ("D", 5, "flip"), ("D", 4, "triality"),
                                                 ("E", 6, "flip"), ("B", 3, "identity")])
    def test_orbit_sum_data_match_ambient_fixed_subspace(self, family, rank, tag):
        aut = make_automorphism(build_root_system(CartanType(family, rank)), tag)
        # the projected simple roots: the ambient orbit sums over |O|
        basis = [vec_scale(Fraction(1, len(orb)), b) for orb, b in
                 zip(aut.simple_orbits, fixed_subspace(aut).basis_vectors)]
        assert projected_gram(aut) == tuple(tuple(vec_dot(x, y) for y in basis)
                                            for x in basis)

        def ambient(v):
            total = tuple(0 for _ in basis[0])
            for c, b in zip(v, basis):
                total = vec_add(total, vec_scale(c, b))
            return total

        assert {ambient(v) for v, _ in mirrored(project_roots(aut))} == \
            ambient_projection_set(aut)


ORACLE_FOLDS = TWISTED + [(f, r, "identity") for f, r in ALL_TYPES]


@pytest.mark.parametrize("family,rank,tag", ORACLE_FOLDS)
def test_fold_matches_the_oracle_projection_and_classifier(family, rank, tag):
    aut = make_automorphism(build_root_system(CartanType(family, rank)), tag)
    sizes = [len(orb) for orb in aut.simple_orbits]
    scaled = sorted((tuple(c * n for c, n in zip(v, sizes)), mult)
                    for v, mult in orbit_sum_projection(aut))
    assert list(mirrored(project_roots(aut))) == scaled
    fold = folded_root_system(aut)
    classify_folded_roots(mirrored(fold.folded_roots), projected_gram(aut), fold.folded_type)


def preserves_cartan(cartan, perm):
    """The Cartan-matrix reference for the diagram check: A[perm i][perm j]
    = A[i][j] for every pair of nodes, O(r^2)."""
    n = len(cartan)
    return all(cartan[perm[i]][perm[j]] == cartan[i][j]
               for i in range(n) for j in range(n))


@pytest.mark.parametrize("family,rank", [(f, r) for f, r in ALL_TYPES if r <= 6])
def test_diagram_check_agrees_with_the_cartan_matrix(family, rank):
    t = CartanType(family, rank)
    cartan = cartan_matrix(t)
    kept = [perm for perm in permutations(range(rank))
            if twist._is_diagram_symmetry(t, perm)]
    assert kept == [perm for perm in permutations(range(rank))
                    if preserves_cartan(cartan, perm)]
    assert tuple(range(rank)) in kept


def test_fold_coordinates_and_fixed_space_matrices_are_integers():
    cases = ([(f, r, "identity") for f, r in SOLOMON_TYPES] +
             [("D", n, "flip") for n in D_FLIP_RANKS] +
             [("A", r, "flip") for r in A_FLIP_RANKS] +
             [("D", 4, "triality"), ("D", 4, "triality2"), ("E", 6, "flip")])
    for family, rank, tag in cases:
        rs = build_root_system(CartanType(family, rank))
        aut = make_automorphism(rs, tag)
        fold = folded_root_system(aut)
        assert all(type(c) is int for v, _ in project_roots(aut) for c in v)
        assert all(type(c) is int for v in fold.folded_roots for c in v)
        action = RootPermutationAction(rs)
        generators = action.steinberg_generators(aut.simple_perm)
        matrices = fixed_space_matrices(action, aut.simple_perm, generators)
        assert all(type(x) is int for m in matrices for row in m for x in row), \
            (family, rank, tag)
        rows = steinberg_rows(rs.cartan_type, aut.simple_perm)
        assert all(type(x) is int for row in rows for x in row), (family, rank, tag)


def test_an_unknown_tag_is_refused_by_name():
    with pytest.raises(ValueError, match="^unknown automorphism spec 'swap'$"):
        check_tag(CartanType("A", 3), "swap")


@pytest.mark.parametrize("table,message", [(expected_folded_type, "folding"),
                                           (fixed_group_info, "fixed-subgroup")])
def test_the_twist_tables_refuse_a_type_without_the_twist(table, message):
    # the pipeline reaches both tables after check_tag, which refuses B3's
    # flip first; called directly, each table has no entry for it
    with pytest.raises(ValueError, match=f"^no {message} entry for B3 with 'flip'$"):
        table(CartanType("B", 3), "flip")


def test_fixed_group_info_component_counts():
    a = CartanType("A", 3)
    assert fixed_group_info(a, "flip").component_counts == (1, 2)
    assert fixed_group_info(CartanType("D", 5), "flip").component_counts == (2, 2)
    assert fixed_group_info(CartanType("D", 4), "triality").component_counts == (1,)
    assert fixed_group_info(CartanType("E", 6), "flip").component_counts == (1,)
    assert fixed_group_info(a, "identity").component_counts == (1,)
