"""Diagram automorphisms, their fixed subspaces, root projections and
folded root systems.

The canonical representative of an outer automorphism class is the
diagram automorphism permuting the simple roots, which preserves the
chosen positive system.  Its fixed subspace inside the root span has the
orbit sums of simple roots as a basis; projection of a root is the
average over the automorphism's powers, written in that basis.

The folded root system is the set of indivisible projected roots (v with
v/2 not a projection), which reproduces the classical folding table:

    identity        -> same type        A_{2m-1} flip -> C_m
    A_{2m}  flip    -> B_m              D_n flip      -> B_{n-1}
    D_4 order three -> G_2              E_6 flip      -> F_4

Each folded system is classified from scratch (positive system, simple
base, Cartan matrix up to simultaneous permutation, reflection closure)
and the construction errors out if the result disagrees with the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import (Matrix, Vector, identity_matrix, invert, kernel_basis,
                    mat_mul, mat_vec, matrix, normalize_scalar, vec_add,
                    vec_dot, vector)
from .rootsys import CartanType, RootSystem, cartan_matrix_of_type, reflect
from .weyl import SubspaceBasis, _perm_orbits

AUTOMORPHISM_TAGS = ("identity", "flip", "triality", "triality2")


@dataclass(frozen=True)
class DiagramAutomorphism:
    """A Dynkin-diagram symmetry together with its ambient linear extension."""

    base: RootSystem
    simple_perm: tuple[int, ...]
    matrix: Matrix
    order: int
    tag: str
    root_perm: tuple[int, ...]

    @property
    def simple_orbits(self) -> tuple[tuple[int, ...], ...]:
        return _perm_orbits(self.simple_perm)


def _is_diagram_symmetry(cartan: Sequence[Sequence[int]], perm: Sequence[int]) -> bool:
    n = len(cartan)
    if sorted(perm) != list(range(n)):
        return False
    return all(cartan[perm[i]][perm[j]] == cartan[i][j]
               for i in range(n) for j in range(n))


def _simple_perm_for_tag(rs: RootSystem, tag: str) -> tuple[int, ...]:
    fam, r = rs.cartan_type.family, rs.cartan_type.rank
    if tag == "identity":
        return tuple(range(r))
    if tag == "flip":
        if fam == "A" and r >= 2:
            return tuple(r - 1 - i for i in range(r))
        if fam == "D":
            return tuple(range(r - 2)) + (r - 1, r - 2)
        if fam == "E" and r == 6:
            return (5, 1, 4, 3, 2, 0)
        raise ValueError(f"no diagram flip for type {rs.cartan_type}")
    if tag in ("triality", "triality2"):
        if fam == "D" and r == 4:
            perm = (2, 1, 3, 0)  # nodes 1 -> 3 -> 4 -> 1, node 2 fixed
            if tag == "triality":
                return perm
            inverse = [0] * 4
            for i, j in enumerate(perm):
                inverse[j] = i
            return tuple(inverse)
        raise ValueError("triality exists only for D4")
    raise ValueError(f"unknown automorphism spec {tag!r}")


def check_simple_perm(images: Sequence[int], rank: int, base: int = 0) -> None:
    """Validate explicit images of the simple nodes, numbered from base
    (0 in the library, 1 on the command line): one image per node, each
    naming a node, and no node named twice."""
    if len(images) != rank:
        raise ValueError(f"permutation has {len(images)} images, expected one "
                         f"per simple node ({rank})")
    for x in images:
        if not base <= x < base + rank:
            raise ValueError(f"permutation image {x} out of range "
                             f"{base}..{base + rank - 1}")
    if len(set(images)) != rank:
        repeated = sorted({x for x in images if images.count(x) > 1})
        raise ValueError(f"permutation is not a bijection: "
                         f"{', '.join(map(str, repeated))} named more than once")


def _classify_perm(rs: RootSystem, perm: tuple[int, ...]) -> str:
    order = _perm_order(perm)
    if order == 1:
        return "identity"
    if order == 2:
        return "flip"
    if order == 3 and rs.cartan_type == CartanType("D", 4):
        return "triality"
    raise ValueError(f"permutation of order {order} is not a supported diagram symmetry")


def _perm_order(perm: tuple[int, ...]) -> int:
    order = 1
    current = perm
    ident = tuple(range(len(perm)))
    while current != ident:
        current = tuple(perm[i] for i in current)
        order += 1
        if order > 24:
            raise ValueError("permutation order out of range")
    return order


def _ambient_extension(rs: RootSystem, perm: tuple[int, ...]) -> Matrix:
    fam, r = rs.cartan_type.family, rs.cartan_type.rank
    n = rs.ambient_dim
    if perm == tuple(range(r)):
        return identity_matrix(n)
    if fam == "A":
        # e_i -> -e_{n-1-i}: restricts to alpha_i -> alpha_{r-1-i} on the
        # sum-zero hyperplane and has no fixed vectors outside it.
        return tuple(tuple(-1 if i == n - 1 - j else 0 for j in range(n))
                     for i in range(n))
    # Solve for the unique map sending alpha_j to alpha_{perm(j)} and fixing
    # the orthogonal complement of the root span.
    complement = kernel_basis(rs.simple_roots)
    source_cols = list(rs.simple_roots) + list(complement)
    target_cols = [rs.simple_roots[perm[j]] for j in range(r)] + list(complement)
    source = matrix(zip(*source_cols))
    target = matrix(zip(*target_cols))
    return mat_mul(target, invert(source))


def make_automorphism(rs: RootSystem, spec: str | Sequence[int]) -> DiagramAutomorphism:
    """Build a diagram automorphism from a tag or an explicit permutation
    of simple-root indices (0-based images)."""
    if isinstance(spec, str):
        tag = spec
        perm = _simple_perm_for_tag(rs, tag)
    else:
        perm = tuple(spec)
        check_simple_perm(perm, rs.cartan_type.rank)
        tag = _classify_perm(rs, perm)
    if not _is_diagram_symmetry(rs.cartan_matrix, perm):
        raise ValueError("permutation does not preserve the Cartan matrix")
    m = _ambient_extension(rs, perm)
    root_perm = _root_permutation(rs, m)
    order = _matrix_order(m)
    _check_consistency(rs, perm, m, root_perm, order)
    return DiagramAutomorphism(rs, perm, m, order, tag, root_perm)


def _root_permutation(rs: RootSystem, m: Matrix) -> tuple[int, ...]:
    images = []
    for v in rs.roots:
        w = mat_vec(m, v)
        idx = rs.root_index.get(w)
        if idx is None:
            raise ValueError("linear extension does not permute the root set")
        images.append(idx)
    if sorted(images) != list(range(len(rs.roots))):
        raise ValueError("root images are not a permutation")
    return tuple(images)


def _matrix_order(m: Matrix) -> int:
    ident = identity_matrix(len(m))
    power = m
    for k in range(1, 25):
        if power == ident:
            return k
        power = mat_mul(power, m)
    raise ValueError("matrix order out of range")


def _check_consistency(rs: RootSystem, perm, m, root_perm, order):
    for i, alpha in enumerate(rs.simple_roots):
        if mat_vec(m, alpha) != rs.simple_roots[perm[i]]:
            raise ValueError("extension disagrees with the simple-root permutation")
    for i, positive in enumerate(rs.positive_mask):
        if positive and not rs.positive_mask[root_perm[i]]:
            raise ValueError("automorphism does not preserve the positive system")
    if order != _perm_order(perm):
        raise ValueError("matrix order differs from diagram-permutation order")


# ---------------------------------------------------------------------------
# orbits, fixed subspace, projection
# ---------------------------------------------------------------------------

def orbits_on_roots(a: DiagramAutomorphism) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of the root indices under the automorphism."""
    return _perm_orbits(a.root_perm)


def positive_orbit_sizes(a: DiagramAutomorphism) -> tuple[int, ...]:
    """Sorted orbit sizes of the action on the positive roots."""
    mask = a.base.positive_mask
    sizes = [len(orb) for orb in orbits_on_roots(a) if mask[orb[0]]]
    return tuple(sorted(sizes))


def fixed_subspace(a: DiagramAutomorphism) -> SubspaceBasis:
    """Basis of the automorphism-fixed part of the root span.

    Over the simple-root basis the automorphism is a coordinate
    permutation, so exact elimination of (matrix - identity) yields the
    orbit sums of simple roots; these are returned as ambient vectors.
    For type A this lands inside the sum-zero hyperplane automatically.
    """
    basis = []
    for orb in a.simple_orbits:
        v = a.base.simple_roots[orb[0]]
        for i in orb[1:]:
            v = vec_add(v, a.base.simple_roots[i])
        basis.append(v)
    return SubspaceBasis(a.base.ambient_dim, tuple(basis))


def project_roots(a: DiagramAutomorphism) -> tuple[tuple[Vector, int], ...]:
    """Averages of the roots over the automorphism's powers, written in the
    fixed-subspace basis; deduplicated, multiplicities retained."""
    rs = a.base
    r = rs.cartan_type.rank
    orbits = a.simple_orbits
    reps = [orb[0] for orb in orbits]
    counts: dict[Vector, int] = {}
    for idx in range(len(rs.roots)):
        avg = [Fraction(0)] * r
        j = idx
        for _ in range(a.order):
            lc = rs.lattice_coords[j]
            for i in range(r):
                avg[i] += lc[i]
            j = a.root_perm[j]
        coords = vector(Fraction(avg[rep], a.order) for rep in reps)
        counts[coords] = counts.get(coords, 0) + 1
    return tuple(sorted(counts.items()))


@dataclass(frozen=True)
class FoldingResult:
    fixed_basis: SubspaceBasis
    projected_roots: tuple[tuple[Vector, int], ...]
    folded: RootSystem
    folded_type: CartanType


def expected_folded_type(rs: RootSystem, tag: str) -> CartanType:
    fam, r = rs.cartan_type.family, rs.cartan_type.rank
    if tag == "identity":
        return rs.cartan_type
    if tag == "flip":
        if fam == "A":
            m = (r + 1) // 2
            return CartanType("C", m) if r % 2 == 1 else CartanType("B", m)
        if fam == "D":
            return CartanType("B", r - 1)
        if fam == "E":
            return CartanType("F", 4)
    if tag in ("triality", "triality2"):
        return CartanType("G", 2)
    raise ValueError(f"no folding entry for {rs.cartan_type} with {tag!r}")


def folded_root_system(a: DiagramAutomorphism) -> FoldingResult:
    basis = fixed_subspace(a)
    projected = project_roots(a)
    proj_set = {v for v, _ in projected}
    half = normalize_scalar(Fraction(1, 2))
    folded_set = sorted(v for v in proj_set
                        if vector(half * c for c in v) not in proj_set)
    gram = matrix([[vec_dot(x, y) for y in basis.basis_vectors]
                   for x in basis.basis_vectors])
    expected = expected_folded_type(a.base, a.tag)
    simple = _classify_root_set(folded_set, gram, expected)
    folded = RootSystem(expected, simple, folded_set, gram=gram)
    if len(basis.basis_vectors) != expected.rank:
        raise ValueError("fixed-subspace dimension differs from folded rank")
    return FoldingResult(basis, projected, folded, expected)


def _classify_root_set(roots: Sequence[Vector], gram: Matrix,
                       expected: CartanType) -> tuple[Vector, ...]:
    """Simple base of a reduced root set, ordered to match the standard
    Cartan matrix of the expected type; errors if the set is not a root
    system of that type."""
    positives = [v for v in roots if _lex_positive(v)]
    if 2 * len(positives) != len(roots):
        raise ValueError("projected root set is not symmetric")
    pos_set = set(positives)
    sums = {vec_add(p, q) for p in positives for q in positives}
    simple = [p for p in positives if p not in sums]
    if len(simple) != expected.rank:
        raise ValueError(f"found {len(simple)} simple roots, expected rank "
                         f"{expected.rank} for {expected}")
    inner = lambda x, y: vec_dot(x, mat_vec(gram, y))
    cand = [[int(Fraction(2 * Fraction(inner(x, y)), 1) / inner(y, y))
             for y in simple] for x in simple]
    std = cartan_matrix_of_type(expected)
    assignment = _match_cartan(cand, std)
    if assignment is None:
        raise ValueError(f"folded Cartan matrix does not match {expected}")
    ordered = tuple(simple[assignment[i]] for i in range(expected.rank))
    _check_closure(roots, ordered, gram)
    return ordered


def _lex_positive(v: Vector) -> bool:
    for c in v:
        if c != 0:
            return c > 0
    return False


def _match_cartan(cand: Sequence[Sequence[int]],
                  std: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    n = len(std)
    if len(cand) != n:
        return None
    if sorted(tuple(sorted(r)) for r in cand) != sorted(tuple(sorted(r)) for r in std):
        return None

    assignment: list[int] = []
    used = [False] * n

    def extend() -> bool:
        i = len(assignment)
        if i == n:
            return True
        for c in range(n):
            if used[c]:
                continue
            if cand[c][c] != std[i][i]:
                continue
            if all(cand[c][assignment[j]] == std[i][j]
                   and cand[assignment[j]][c] == std[j][i] for j in range(i)):
                assignment.append(c)
                used[c] = True
                if extend():
                    return True
                assignment.pop()
                used[c] = False
        return False

    return tuple(assignment) if extend() else None


def _check_closure(roots: Sequence[Vector], simple: Sequence[Vector], gram: Matrix):
    root_set = set(roots)
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for x in frontier:
            for s in simple:
                y = reflect(x, s, gram)
                if y not in root_set:
                    raise ValueError("folded set is not closed under its reflections")
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    if seen != root_set:
        raise ValueError("folded set is not generated by its simple base")


# ---------------------------------------------------------------------------
# applicability criteria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitCriterion:
    orbit_count: int
    folded_root_count: int

    @property
    def holds(self) -> bool:
        return self.orbit_count == self.folded_root_count


def orbit_count_criterion(a: DiagramAutomorphism,
                          folding: FoldingResult | None = None) -> OrbitCriterion:
    """Compare the number of automorphism orbits on the roots with the size
    of the folded system.  Equality implies the projected and folded
    systems coincide; inequality is inconclusive, not a failure."""
    if folding is None:
        folding = folded_root_system(a)
    return OrbitCriterion(len(orbits_on_roots(a)), len(folding.folded.roots))


def wsigma_preserves_folded(generators: Sequence[Matrix],
                            folding: FoldingResult) -> bool:
    """Whether the group generated by the given fixed-subspace matrices
    permutes the folded root set.  A finite group permutes a finite set
    exactly when its generators do, so only the generators are checked
    (each against every folded root, in fixed-subspace coordinates)."""
    rank = folding.folded_type.rank
    if any(len(g) != rank for g in generators):
        raise ValueError("restricted group acts in the wrong dimension")
    root_set = set(folding.folded.roots)
    for g in generators:
        for v in folding.folded.roots:
            if mat_vec(g, v) not in root_set:
                return False
    return True


# ---------------------------------------------------------------------------
# fixed-subgroup bookkeeping for the coefficient-exclusion report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedGroupInfo:
    note: str
    component_counts: tuple[int, ...]  # |pi_0| for the documented representatives


def fixed_group_info(rs: RootSystem, tag: str) -> FixedGroupInfo:
    fam, r = rs.cartan_type.family, rs.cartan_type.rank
    if tag == "identity":
        return FixedGroupInfo(
            "untwisted: the fixed subgroup is the whole (connected) group", (1,))
    if fam == "A":
        n = r + 1
        if n % 2 == 0:
            return FixedGroupInfo(
                "order-two twist of the special unitary group: the "
                "chamber-preserving representative fixes a connected compact "
                "symplectic subgroup; the conjugation representative fixes an "
                "orthogonal-type subgroup, counted conservatively with two "
                "components", (1, 2))
        return FixedGroupInfo(
            "order-two twist of the special unitary group: the fixed subgroup "
            "is an odd orthogonal group, counted conservatively with two "
            "components for the conjugation representative", (1, 2))
    if fam == "D" and tag == "flip":
        return FixedGroupInfo(
            "orientation-reversing twist of the even orthogonal group: the "
            "fixed subgroup is a full odd orthogonal group with two "
            "components; its identity component is the odd special "
            "orthogonal group", (2, 2))
    if fam == "D" and tag in ("triality", "triality2"):
        return FixedGroupInfo(
            "order-three twist: the fixed subgroup is the connected "
            "exceptional group of rank two", (1,))
    if fam == "E":
        return FixedGroupInfo(
            "order-two twist: the fixed subgroup is the connected exceptional "
            "group of rank four", (1,))
    raise ValueError(f"no fixed-subgroup entry for {rs.cartan_type} with {tag!r}")
