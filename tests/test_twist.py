from fractions import Fraction
from itertools import permutations
from operator import mul

import pytest

from twistloop import rootsys, twist
from twistloop.exact import mat_mul
from twistloop.oracle import (RootPermutationAction, WeylPermutationGroup,
                              ambient_roots, ambient_vector,
                              automorphism_matrix, classify_folded_roots,
                              fixed_space_matrices, fixed_space_stabilizer_perms,
                              fixed_subspace,
                              identity_matrix, mat_vec, orbit_sum_gram,
                              orbit_sum_projection, projected_gram, rank,
                              restricted_fixed_space_group, simple_root_vectors,
                              vec_add, vec_dot, vec_scale, vector)
from twistloop.rootsys import CartanType, build_root_system, cartan_from_gram, cartan_matrix
from twistloop.twist import (check_folded_roots, fixed_group_info, folded_gram,
                             folded_root_system, make_automorphism,
                             orbit_count_criterion, orbits_on_roots,
                             positive_orbit_sizes, project_roots,
                             wsigma_preserves_folded)
from twistloop.weyl import steinberg_rows

from test_acceptance import A_FLIP_RANKS, D_FLIP_RANKS, SOLOMON_TYPES
from test_properties import IDENTITIES, TWISTS
from test_rootsys import ALL_TYPES
from test_wsigma import TWISTED, coset_inputs


def permutes_folded_roots(matrices, fold):
    """Dense reference for the preservation check: every matrix sends every
    folded root to a folded root."""
    roots = set(fold.folded_roots)
    return all(tuple(sum(map(mul, row, v)) for row in g) in roots
               for g in matrices for v in roots)


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
        # or Gram matrix is built for it
        rs = build_root_system(CartanType("E", 6))

        def refuse(t):
            raise AssertionError("a dense matrix built to check the twist")

        monkeypatch.setattr(twist, "cartan_matrix", refuse)
        monkeypatch.setattr(rootsys, "cartan_matrix", refuse)
        monkeypatch.setattr(rootsys, "simple_gram", refuse)
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

    def test_positive_system_preserved(self):
        for fam, rk, tag in [("A", 4, "flip"), ("D", 5, "flip"),
                             ("D", 4, "triality"), ("E", 6, "flip")]:
            rs = build_root_system(CartanType(fam, rk))
            aut = make_automorphism(rs, tag)
            for i, pos in enumerate(rs.positive_mask):
                if pos:
                    assert rs.positive_mask[aut.root_perm[i]]


class TestOrbits:
    def test_identity_singletons(self):
        rs = build_root_system(CartanType("A", 2))
        aut = make_automorphism(rs, "identity")
        assert len(orbits_on_roots(aut)) == 6
        assert all(len(o) == 1 for o in orbits_on_roots(aut))

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
            orbits = orbits_on_roots(aut)
            assert sum(len(o) for o in orbits) == len(rs.roots)
            assert all(aut.order % len(o) == 0 for o in orbits)


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
        coords = project_roots(aut)
        assert sum(mult for _, mult in coords) == len(rs.roots)
        assert all(mult == 1 for _, mult in coords)

    @pytest.mark.parametrize("family,rank", ALL_TYPES)
    def test_identity_projection_is_the_root_set_itself(self, family, rank):
        rs = build_root_system(CartanType(family, rank))
        aut = make_automorphism(rs, "identity")
        proj = project_roots(aut)
        assert proj == tuple((c, 1) for c in rs.roots)
        assert all(v is c for (v, _), c in zip(proj, rs.roots))
        # the orbit sums over one-node orbits, as a twisted case takes them
        sums = {}
        for c in rs.roots:
            v = tuple(sum(c[i] for i in orb) for orb in aut.simple_orbits)
            sums[v] = sums.get(v, 0) + 1
        assert proj == tuple(sorted(sums.items()))

    def test_multiplicities_account_for_all_roots(self):
        rs = build_root_system(CartanType("E", 6))
        aut = make_automorphism(rs, "flip")
        coords = project_roots(aut)
        assert sum(mult for _, mult in coords) == 72
        assert len(coords) == 48


class TestFolding:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_d_flip_folds_to_odd_orthogonal(self, n):
        rs = build_root_system(CartanType("D", n))
        fold = folded_root_system(make_automorphism(rs, "flip"))
        assert fold.folded_type == CartanType("B", n - 1)
        assert len(fold.folded_roots) == 2 * (n - 1) ** 2

    def test_triality_folds_to_g2(self):
        rs = build_root_system(CartanType("D", 4))
        fold = folded_root_system(make_automorphism(rs, "triality"))
        assert fold.folded_type == CartanType("G", 2)
        assert len(fold.folded_roots) == 12

    def test_e6_folds_to_f4(self):
        rs = build_root_system(CartanType("E", 6))
        fold = folded_root_system(make_automorphism(rs, "flip"))
        assert fold.folded_type == CartanType("F", 4)
        assert len(fold.folded_roots) == 48

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
            fold = folded_root_system(make_automorphism(rs, tag))
            proj = {v for v, _ in fold.projected_roots}
            assert set(fold.folded_roots) <= proj

    def test_folded_check_rejects_a_wrong_set_or_type(self):
        rs = build_root_system(CartanType("E", 6))
        aut = make_automorphism(rs, "flip")
        roots = folded_root_system(aut).folded_roots
        gram = projected_gram(aut)
        check_folded_roots(roots, gram, CartanType("F", 4))
        # the highest root and its negative: the set stays symmetric and
        # keeps its simple base, so only the comparison with F4's roots fails
        top = max(roots, key=sum)
        neg = tuple(-c for c in top)
        with pytest.raises(ValueError, match="not the root system of F4"):
            check_folded_roots([v for v in roots if v not in (top, neg)],
                               gram, CartanType("F", 4))
        with pytest.raises(ValueError):
            check_folded_roots([v for v in roots if v != top], gram, CartanType("F", 4))
        for wrong in (CartanType("B", 4), CartanType("C", 4), CartanType("G", 2)):
            with pytest.raises(ValueError):
                check_folded_roots(roots, gram, wrong)
        # the orbit sums b_O = |O| beta_O as the base: F4 in the reverse
        # node order, whose roots are not the set
        with pytest.raises(ValueError, match="not the root system of F4"):
            check_folded_roots(roots, orbit_sum_gram(aut), CartanType("F", 4))
        # a set missing a simple root
        unit = (0, 1, 0, 0)
        assert unit in roots
        with pytest.raises(ValueError, match="not the root system of F4"):
            check_folded_roots([v for v in roots if v != unit], gram, CartanType("F", 4))

    def test_folded_check_rejects_a_doubled_short_root(self):
        # A4 flip: the projections hold 2v next to each short root v of B2
        aut = make_automorphism(build_root_system(CartanType("A", 4)), "flip")
        fold = folded_root_system(aut)
        gram = projected_gram(aut)
        proj = {v for v, _ in fold.projected_roots}
        short = [v for v in fold.folded_roots if tuple(2 * c for c in v) in proj]
        assert len(short) == 4
        swapped = [tuple(2 * c for c in v) if v == short[0] else v
                   for v in fold.folded_roots]
        with pytest.raises(ValueError, match="not the root system of B2"):
            check_folded_roots(swapped, gram, CartanType("B", 2))
        with pytest.raises(ValueError):
            check_folded_roots(sorted(proj), gram, CartanType("B", 2))


class TestCriteria:
    def test_triality_orbit_criterion(self):
        rs = build_root_system(CartanType("D", 4))
        crit = orbit_count_criterion(make_automorphism(rs, "triality"))
        assert crit.orbit_count == 12 and crit.folded_root_count == 12
        assert crit.holds

    def test_e6_orbit_criterion(self):
        rs = build_root_system(CartanType("E", 6))
        crit = orbit_count_criterion(make_automorphism(rs, "flip"))
        assert crit.orbit_count == 48 and crit.holds

    def test_a4_criterion_inconclusive(self):
        rs = build_root_system(CartanType("A", 4))
        crit = orbit_count_criterion(make_automorphism(rs, "flip"))
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
            assert wsigma_preserves_folded(coset_inputs(fam, rk, tag)[-1], fold)

    def test_identity_weyl_permutes_own_roots(self):
        rs = build_root_system(CartanType("A", 2))
        aut = make_automorphism(rs, "identity")
        fold = folded_root_system(aut)
        w = WeylPermutationGroup(rs)
        assert permutes_folded_roots(w.to_matrix_group().elements, fold)
        assert wsigma_preserves_folded(coset_inputs("A", 2, "identity")[-1], fold)


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
            for i, c in enumerate(rs.roots):
                assert mat_vec(m, ambient_vector(t, c)) == \
                    ambient_vector(t, rs.roots[aut.root_perm[i]])
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
        # the pipeline's integer Gram matrix has the reference's Cartan matrix
        assert all(type(x) is int for row in folded_gram(aut) for x in row)
        assert cartan_from_gram(folded_gram(aut)) == cartan_from_gram(projected_gram(aut))

        def ambient(v):
            total = tuple(0 for _ in basis[0])
            for c, b in zip(v, basis):
                total = vec_add(total, vec_scale(c, b))
            return total

        assert {ambient(v) for v, _ in project_roots(aut)} == ambient_projection_set(aut)


ORACLE_FOLDS = TWISTED + [(f, r, "identity") for f, r in ALL_TYPES]


@pytest.mark.parametrize("family,rank,tag", ORACLE_FOLDS)
def test_fold_matches_the_oracle_projection_and_classifier(family, rank, tag):
    aut = make_automorphism(build_root_system(CartanType(family, rank)), tag)
    sizes = [len(orb) for orb in aut.simple_orbits]
    scaled = sorted((tuple(c * n for c, n in zip(v, sizes)), mult)
                    for v, mult in orbit_sum_projection(aut))
    assert list(project_roots(aut)) == scaled
    fold = folded_root_system(aut)
    classify_folded_roots(fold.folded_roots, projected_gram(aut), fold.folded_type)


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
        assert all(type(c) is int for v, _ in fold.projected_roots for c in v)
        assert all(type(c) is int for v in fold.folded_roots for c in v)
        action = RootPermutationAction(rs)
        generators = action.steinberg_generators(aut.simple_perm)
        matrices = fixed_space_matrices(action, aut.simple_perm, generators)
        assert all(type(x) is int for m in matrices for row in m for x in row), \
            (family, rank, tag)
        rows = steinberg_rows(rs.cartan_type, aut.simple_perm)
        assert all(type(x) is int for row in rows for x in row), (family, rank, tag)


def test_fixed_group_info_component_counts():
    a = CartanType("A", 3)
    assert fixed_group_info(a, "flip").component_counts == (1, 2)
    assert fixed_group_info(CartanType("D", 5), "flip").component_counts == (2, 2)
    assert fixed_group_info(CartanType("D", 4), "triality").component_counts == (1,)
    assert fixed_group_info(CartanType("E", 6), "flip").component_counts == (1,)
    assert fixed_group_info(a, "identity").component_counts == (1,)
