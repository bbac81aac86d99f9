from fractions import Fraction

import pytest

from twistloop.exact import BigradedSeries, product_over_degrees
from twistloop.oracle import (FiniteMatrixGroup, SubspaceBasis, collapse_to_cohomological,
                              WeylPermutationGroup, charpoly, dets_from_charpoly,
                              fixed_space_stabilizer_perms, fixed_subspace,
                              generate_group, identity_matrix, mat_mul, mat_vec, matrix,
                              rational_function_series, reflection_matrix,
                              restrict_to_subspace, restricted_fixed_space_group,
                              simple_root_vectors, solve, subspace_stabilizer,
                              super_molien, super_molien_from_buckets)
from twistloop.rootsys import CartanType, build_root_system, degrees, weyl_order
from twistloop.twist import make_automorphism
from twistloop.weyl import GroupTooLargeError


def ambient_reflections(rs):
    return [reflection_matrix(a) for a in simple_root_vectors(rs.cartan_type)]


def molien_element_by_element(mats, trunc: int) -> BigradedSeries:
    """Unbucketed reference evaluation: expand every matrix separately and
    average over the list, duplicates included."""
    total = {}
    for m in mats:
        num, den = dets_from_charpoly(charpoly(m))
        for k, c in rational_function_series(num, den, trunc).coefficients.items():
            total[k] = total.get(k, 0) + c
    return BigradedSeries(trunc, {k: Fraction(c, len(mats)) for k, c in total.items()})


class TestGenerateGroup:
    def test_single_reflection(self):
        rs = build_root_system(CartanType("A", 1))
        g = generate_group(ambient_reflections(rs))
        assert len(g) == 2

    @pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3),
                                             ("C", 3), ("D", 4), ("G", 2), ("F", 4),
                                             ("D", 5), ("A", 5)])
    def test_orders_match_table(self, family, rank):
        rs = build_root_system(CartanType(family, rank))
        g = generate_group(ambient_reflections(rs))
        assert len(g) == weyl_order(rs.cartan_type)

    def test_d4_order(self):
        rs = build_root_system(CartanType("D", 4))
        assert len(generate_group(ambient_reflections(rs))) == 192 == 2**3 * 24

    def test_cap(self):
        rs = build_root_system(CartanType("A", 4))
        with pytest.raises(GroupTooLargeError):
            generate_group(ambient_reflections(rs), cap=10)

    def test_bucket_multiplicities_sum_to_order(self):
        rs = build_root_system(CartanType("B", 3))
        g = generate_group(ambient_reflections(rs))
        assert sum(g.charpoly_buckets.values()) == len(g)


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
    def test_coordinate_swap(self):
        m = reflection_matrix((1, -1, 0))
        assert m == ((0, 1, 0), (1, 0, 0), (0, 0, 1))

    def test_involution(self):
        m = reflection_matrix((2, -1, 3))
        assert mat_mul(m, m) == identity_matrix(3)

    def test_fixes_orthogonal_hyperplane(self):
        root = (1, 1, 0)
        m = reflection_matrix(root)
        for v in [(1, -1, 0), (0, 0, 1)]:
            assert mat_vec(m, v) == v
        assert mat_vec(m, root) == (-1, -1, 0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            reflection_matrix((0, 0))


class TestSubspaceStabilizer:
    def test_full_space(self):
        rs = build_root_system(CartanType("A", 2))
        g = generate_group(ambient_reflections(rs))
        full = SubspaceBasis(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert len(subspace_stabilizer(g, full)) == len(g)

    def test_zero_dimensional(self):
        rs = build_root_system(CartanType("A", 2))
        g = generate_group(ambient_reflections(rs))
        assert len(subspace_stabilizer(g, SubspaceBasis(3, ()))) == len(g)

    def test_triality_plane(self):
        rs = build_root_system(CartanType("D", 4))
        aut = make_automorphism(rs, "triality")
        g = generate_group(ambient_reflections(rs))
        stab = subspace_stabilizer(g, fixed_subspace(aut))
        restricted = restrict_to_subspace(stab, fixed_subspace(aut))
        assert len(restricted) == 12 == weyl_order(CartanType("G", 2))

    def test_generic_route_matches_fast_route(self):
        rs = build_root_system(CartanType("A", 3))
        aut = make_automorphism(rs, "flip")
        g = generate_group(ambient_reflections(rs))
        stab = subspace_stabilizer(g, fixed_subspace(aut))
        w = WeylPermutationGroup(rs)
        fast = fixed_space_stabilizer_perms(w, aut.simple_perm)
        assert len(stab) == len(fast)
        restricted = restrict_to_subspace(stab, fixed_subspace(aut))
        fast_restricted = restricted_fixed_space_group(w, aut.simple_perm, fast)
        assert len(restricted) == len(fast_restricted) == 8
        assert restricted.charpoly_buckets == fast_restricted.charpoly_buckets


class TestRestrictToSubspace:
    def test_trivial_group(self):
        g = FiniteMatrixGroup(3, [identity_matrix(3)])
        r = restrict_to_subspace(g, SubspaceBasis(3, ((1, 1, 0),)))
        assert len(r) == 1 and r.dim == 1

    def test_error_when_not_preserved(self):
        swap = matrix([[0, 1], [1, 0]])
        g = FiniteMatrixGroup(2, [identity_matrix(2), swap])
        with pytest.raises(ValueError):
            restrict_to_subspace(g, SubspaceBasis(2, ((1, 0),)))

    def test_kernel_collapse_keeps_series(self):
        # stabilizer of span(e1) in W(B2): reflections in e2 act trivially there
        rs = build_root_system(CartanType("B", 2))
        g = generate_group(ambient_reflections(rs))
        line = SubspaceBasis(2, ((1, 0),))
        stab = subspace_stabilizer(g, line)
        restricted = restrict_to_subspace(stab, line)
        assert len(restricted) < len(stab)
        # non-deduplicated average over the stabilizer equals the image series
        cols = matrix(zip(*line.basis_vectors))
        mats = []
        for m in stab.elements:
            mats.append(tuple(zip(*[solve(cols, mat_vec(m, b))
                                    for b in line.basis_vectors])))
        assert molien_element_by_element(mats, 20) == super_molien(restricted, 20)


class TestSuperMolien:
    def test_trivial_group(self):
        g = FiniteMatrixGroup(2, [identity_matrix(2)])
        s = super_molien(g, 8)
        expected = rational_function_series((1, 2, 1), (1, -2, 1), 8)
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
