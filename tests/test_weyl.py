import math

import pytest

from twistloop import oracle
from twistloop.exact import BigradedSeries, product_over_degrees, solomon_series
from twistloop.oracle import (ORACLE_ELEMENT_CAP, FiniteMatrixGroup, RootPermutationAction,
                              WeylPermutationGroup, charpoly, close_permutations,
                              collapse_to_cohomological, fixed_space_charpoly_buckets,
                              fixed_space_stabilizer_perms, identity_matrix, reflect,
                              restricted_fixed_space_group, super_molien,
                              super_molien_from_buckets)
from twistloop.rootsys import CartanType, build_root_system, degrees, weyl_order
from twistloop.twist import make_automorphism
from twistloop.weyl import GroupTooLargeError


def closure(rs, cap=ORACLE_ELEMENT_CAP):
    return close_permutations(RootPermutationAction(rs).simple_reflections, cap)


def molien_element_by_element(mats, trunc: int) -> BigradedSeries:
    """Unbucketed reference evaluation: expand every matrix separately, as
    a group of order 1, and average over the list, duplicates included."""
    total = {}
    for m in mats:
        for k, c in super_molien_from_buckets({charpoly(m): 1}, 1, trunc).coefficients.items():
            total[k] = total.get(k, 0) + c
    averaged = {}
    for k, c in total.items():
        averaged[k], rest = divmod(c, len(mats))
        assert rest == 0, k
    return BigradedSeries(trunc, averaged)


class TestGenerateGroup:
    """close_permutations, the oracle's one group closure, generates the
    Weyl group from the simple reflections as root permutations."""

    def test_single_reflection(self):
        assert len(closure(build_root_system(CartanType("A", 1)))) == 2

    @pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3),
                                             ("C", 3), ("D", 4), ("G", 2), ("F", 4),
                                             ("D", 5), ("A", 5)])
    def test_orders_match_table(self, family, rank):
        rs = build_root_system(CartanType(family, rank))
        assert len(closure(rs)) == weyl_order(rs.cartan_type)

    def test_d4_order(self):
        assert len(closure(build_root_system(CartanType("D", 4)))) == 192 == 2**3 * 24

    def test_cap(self):
        with pytest.raises(GroupTooLargeError):
            closure(build_root_system(CartanType("A", 4)), cap=10)

    def test_bucket_multiplicities_sum_to_order(self):
        w = WeylPermutationGroup(build_root_system(CartanType("B", 3)))
        assert sum(w.charpoly_buckets().values()) == len(w) == 48


class TestPermutationEnumeration:
    @pytest.mark.parametrize("family,rank", [("A", 6), ("B", 5), ("C", 4), ("D", 5),
                                             ("F", 4), ("G", 2), ("E", 6)])
    def test_counts(self, family, rank):
        rs = build_root_system(CartanType(family, rank))
        w = WeylPermutationGroup(rs)
        assert len(w) == weyl_order(rs.cartan_type)

    def test_lattice_matrices_agree_with_ambient_enumeration(self):
        rs = build_root_system(CartanType("B", 2))
        w = WeylPermutationGroup(rs)
        explicit = w.to_matrix_group()
        assert len(explicit) == 8
        # bucket table must coincide with the trace-tuple route
        assert explicit.charpoly_buckets == w.charpoly_buckets()


class TestReflectionMatrix:
    """The ambient reflection the roots reference closes under."""

    def test_coordinate_swap(self):
        for v, image in [((1, 0, 0), (0, 1, 0)), ((0, 1, 0), (1, 0, 0)), ((0, 0, 1), (0, 0, 1))]:
            assert reflect(v, (1, -1, 0)) == image

    def test_involution(self):
        root = (2, -1, 3)
        for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)]:
            assert reflect(reflect(v, root), root) == v

    def test_fixes_orthogonal_hyperplane(self):
        root = (1, 1, 0)
        for v in [(1, -1, 0), (0, 0, 1)]:
            assert reflect(v, root) == v
        assert reflect(root, root) == (-1, -1, 0)


class TestSubspaceStabilizer:
    """The stabilizer of sigma's fixed subspace, on root permutations."""

    def test_full_space(self):
        # sigma = identity fixes the whole space, which every element keeps
        w = WeylPermutationGroup(build_root_system(CartanType("A", 2)))
        assert fixed_space_stabilizer_perms(w, (0, 1)) == w.elements

    def test_triality_plane(self):
        rs = build_root_system(CartanType("D", 4))
        aut = make_automorphism(rs, "triality")
        w = WeylPermutationGroup(rs)
        stab = fixed_space_stabilizer_perms(w, aut.simple_perm)
        restricted = restricted_fixed_space_group(w, aut.simple_perm, stab)
        assert len(restricted) == len(stab) == 12 == weyl_order(CartanType("G", 2))


class TestRestrictToSubspace:
    def test_trivial_group(self):
        rs = build_root_system(CartanType("A", 3))
        aut = make_automorphism(rs, "flip")
        action = RootPermutationAction(rs)
        r = restricted_fixed_space_group(action, aut.simple_perm, [bytes(range(len(rs.roots)))])
        assert len(r) == 1 and r.dim == 2
        assert r.elements == (identity_matrix(2),)


class TestSuperMolien:
    def test_trivial_group(self):
        g = FiniteMatrixGroup(2, [identity_matrix(2)])
        s = super_molien(g, 8)
        # (1 + s)^2 / (1 - t)^2
        expected = BigradedSeries(8, {(a, b): math.comb(2, a) * (b + 1)
                                      for a in range(3) for b in range(5)})
        assert s == expected

    def test_sign_group_on_line(self):
        g = FiniteMatrixGroup(1, [((1,),), ((-1,),)])
        s = super_molien(g, 13)
        # (1+st)/(1-t^2)
        for b in range(7):
            assert s[(0, b)] == (1 if b % 2 == 0 else 0)
        for b in range(6):
            assert s[(1, b)] == (1 if b % 2 == 1 else 0)
        assert collapse_to_cohomological(s) == product_over_degrees([2], 13)

    def test_f4_matches_solomon_product(self):
        rs = build_root_system(CartanType("F", 4))
        w = WeylPermutationGroup(rs)
        s = super_molien_from_buckets(w.charpoly_buckets(), len(w), 50)
        assert collapse_to_cohomological(s) == product_over_degrees([2, 6, 8, 12], 50)

    @pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2),
                                             ("B", 3), ("C", 3), ("D", 4), ("G", 2)])
    def test_solomon_identity_small_types(self, family, rank):
        t = CartanType(family, rank)
        rs = build_root_system(t)
        w = WeylPermutationGroup(rs)
        s = super_molien_from_buckets(w.charpoly_buckets(), len(w), 40)
        assert collapse_to_cohomological(s) == product_over_degrees(degrees(t), 40)

    @pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2)])
    def test_bucketed_equals_element_by_element(self, family, rank):
        rs = build_root_system(CartanType(family, rank))
        g = WeylPermutationGroup(rs).to_matrix_group()
        assert len(g) <= 48
        assert molien_element_by_element(g.elements, 24) == super_molien(g, 24)

    def test_coefficients_nonnegative_with_unit(self):
        rs = build_root_system(CartanType("C", 3))
        w = WeylPermutationGroup(rs)
        s = super_molien_from_buckets(w.charpoly_buckets(), len(w), 30)
        assert s[(0, 0)] == 1
        assert all(isinstance(c, int) and c >= 0 for c in s.coefficients.values())

    def test_negative_truncation_rejected(self):
        g = FiniteMatrixGroup(1, [((1,),)])
        with pytest.raises(ValueError):
            super_molien(g, -1)

    def test_refuses_what_is_no_group(self):
        with pytest.raises(ValueError, match="empty group"):
            super_molien_from_buckets({(-1, 1): 1}, 0, 5)
        # one element averaged over an order of 2: the s^0 t^0 slot is 1/2
        with pytest.raises(ValueError, match="input is not a group"):
            super_molien_from_buckets({(-1, 1): 1}, 2, 5)

    def test_forms_no_fraction(self, monkeypatch):
        # the average is one integer expansion per bucket and one exact
        # divmod: W(B3), W(F4), and the E6 flip's W^sigma on its fixed subspace
        b3, f4 = CartanType("B", 3), CartanType("F", 4)
        cases = []
        for t, tag, folded in [(b3, "identity", b3), (f4, "identity", f4),
                               (CartanType("E", 6), "flip", f4)]:
            rs = build_root_system(t)
            perm = make_automorphism(rs, tag).simple_perm
            action = RootPermutationAction(rs)
            elements = close_permutations(action.steinberg_generators(perm), ORACLE_ELEMENT_CAP)
            buckets = fixed_space_charpoly_buckets(action, perm, elements)
            cases.append((buckets, len(elements), folded))

        def refuse(*args, **kwargs):
            raise AssertionError("a Fraction formed in the super-Molien average")

        monkeypatch.setattr(oracle, "Fraction", refuse)
        for buckets, order, folded in cases:
            s = super_molien_from_buckets(buckets, order, 60)
            assert s == solomon_series(degrees(folded), 60)


class TestCohomologicalSeries:
    def test_sign_group(self):
        g = FiniteMatrixGroup(1, [((1,),), ((-1,),)])
        assert collapse_to_cohomological(super_molien(g, 12)) == \
            (1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1)

    def test_trivial_one_dim(self):
        g = FiniteMatrixGroup(1, [((1,),)])
        # (1+u)/(1-u^2) = 1/(1-u)
        assert collapse_to_cohomological(super_molien(g, 10)) == (1,) * 11

    def test_g2_closed_form(self):
        rs = build_root_system(CartanType("G", 2))
        w = WeylPermutationGroup(rs)
        s = super_molien_from_buckets(w.charpoly_buckets(), len(w), 50)
        assert collapse_to_cohomological(s) == product_over_degrees([2, 6], 50)
