"""Diagram automorphisms, root projections and folded root systems.

The canonical representative of an outer automorphism class is the
diagram automorphism sigma permuting the simple nodes, which preserves the
Dynkin diagram, its edges and the lengths of the simple roots, and so the
Cartan matrix.  Over the simple base sigma is a coordinate permutation,
c'[perm[j]] = c[j], so it permutes the roots and preserves the positive
system.  Its fixed subspace has the projected simple roots
beta_O = pi(alpha_i), i in O, as a basis, one per sigma-orbit O of simple
nodes, where pi is the average over sigma's powers (beta_O is the orbit
sum of simple roots divided by |O|).  A root c projects to the integer
vector of its orbit sums, (sum_{i in O} c_i)_O.  With n the order of
sigma, each n beta_O is an integer combination of simple roots, so n^2
times the Gram matrix of the beta_O is an integer matrix summed from the
Gram matrix of the simple roots, and it has the folded Cartan matrix.
Every step is integer arithmetic.

The folded root system is the set of indivisible projected roots (v with
v/2 not a projection), which reproduces the classical folding table:

    identity        -> same type        A_{2m-1} flip -> C_m
    A_{2m}  flip    -> B_m              D_n flip      -> B_{n-1}
    D_4 order three -> G_2              E_6 flip      -> F_4

The beta_O are the folded system's own simple roots.  Each folded set is
certified against the table's type: the Cartan matrix of the beta_O,
from their inner products, must be the type's in some order of the
nodes, and the set must equal the closure of the beta_O under their own
simple reflections; the construction errors out otherwise.
The ambient matrix of sigma, its ambient fixed subspace, the average over
sigma's powers, the Gram matrix of the beta_O in Fractions and a
from-scratch classifier of the folded set are test references in
:mod:`twistloop.oracle`.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import mul

from .exact import Matrix, Record, Vector
from .rootsys import (CartanType, RootSystem, _closure, cartan_from_gram,
                      cartan_matrix, dynkin_diagram, root_count)
from .weyl import _perm_orbits, _perm_order

AUTOMORPHISM_TAGS = ("identity", "flip", "triality", "triality2")


class DiagramAutomorphism(Record):
    """A Dynkin-diagram symmetry and the permutation it induces on the roots."""

    __slots__ = ("base", "simple_perm", "order", "tag", "root_perm")
    base: RootSystem
    simple_perm: tuple[int, ...]
    order: int
    tag: str
    root_perm: tuple[int, ...]

    @property
    def simple_orbits(self) -> tuple[tuple[int, ...], ...]:
        return _perm_orbits(self.simple_perm)


def _is_diagram_symmetry(t: CartanType, perm: Sequence[int]) -> bool:
    """Whether the bijection perm keeps each simple root's squared length l
    and the Dynkin diagram's edges, in O(r): off the diagonal A_ij is 0, or
    -max(l_i, l_j) / l_j at an edge, so these preserve the Cartan matrix."""
    lengths, edges = dynkin_diagram(t)
    return (all(lengths[p] == length for p, length in zip(perm, lengths))
            and {frozenset((perm[i], perm[j])) for i, j in edges}
            == set(map(frozenset, edges)))


def _inverse(perm: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


def _simple_perm_for_tag(t: CartanType, tag: str) -> tuple[int, ...]:
    fam, r = t.family, t.rank
    if tag == "identity":
        return tuple(range(r))
    if tag == "flip":
        if fam == "A" and r >= 2:
            return tuple(r - 1 - i for i in range(r))
        if fam == "D":
            return tuple(range(r - 2)) + (r - 1, r - 2)
        if fam == "E" and r == 6:
            return (5, 1, 4, 3, 2, 0)
        raise ValueError(f"no diagram flip for type {t}")
    if tag in ("triality", "triality2"):
        if fam == "D" and r == 4:
            perm = (2, 1, 3, 0)  # nodes 1 -> 3 -> 4 -> 1, node 2 fixed
            return perm if tag == "triality" else _inverse(perm)
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


def _classify_perm(t: CartanType, perm: tuple[int, ...]) -> str:
    order = _perm_order(perm)
    if order == 1:
        return "identity"
    if order == 2:
        return "flip"
    if order == 3 and t == CartanType("D", 4):
        return "triality"
    raise ValueError(f"permutation of order {order} is not a supported diagram symmetry")


def resolve_twist(t: CartanType, spec: str | Sequence[int]) -> tuple[tuple[int, ...], str]:
    """Node permutation and tag of a twist given as a tag or as explicit
    simple-node images (0-based), checked to be a diagram symmetry on the
    Dynkin diagram.  Needs only the type, not its roots or its Cartan
    matrix."""
    if isinstance(spec, str):
        tag = spec
        perm = _simple_perm_for_tag(t, tag)
    else:
        perm = tuple(spec)
        check_simple_perm(perm, t.rank)
        tag = _classify_perm(t, perm)
    if not _is_diagram_symmetry(t, perm):
        raise ValueError("permutation does not preserve the Cartan matrix")
    return perm, tag


def make_automorphism(rs: RootSystem, spec: str | Sequence[int]) -> DiagramAutomorphism:
    """Build a diagram automorphism from a tag or an explicit permutation
    of simple-root indices (0-based images), checked on the Dynkin
    diagram (:func:`resolve_twist`)."""
    perm, tag = resolve_twist(rs.cartan_type, spec)
    inverse = _inverse(perm)  # c'[perm[j]] = c[j] reads c'[k] = c[inverse[k]]
    root_perm = tuple(rs.root_index[tuple(c[j] for j in inverse)] for c in rs.roots)
    return DiagramAutomorphism(rs, perm, _perm_order(perm), tag, root_perm)


# ---------------------------------------------------------------------------
# orbits, projection, folding
# ---------------------------------------------------------------------------

def orbits_on_roots(a: DiagramAutomorphism) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of the root indices under the automorphism."""
    return _perm_orbits(a.root_perm)


def positive_orbit_sizes(a: DiagramAutomorphism) -> tuple[int, ...]:
    """Sorted orbit sizes of the action on the positive roots."""
    mask = a.base.positive_mask
    sizes = [len(orb) for orb in orbits_on_roots(a) if mask[orb[0]]]
    return tuple(sorted(sizes))


def project_roots(a: DiagramAutomorphism) -> tuple[tuple[Vector, int], ...]:
    """Projections of the roots over the projected simple roots beta_O:
    root c goes to its orbit sums (sum_{i in O} c_i)_O.  Deduplicated,
    multiplicities retained."""
    if a.order == 1:
        # every orbit is one node, in node order: each root is its own
        # projection, and the roots are sorted and distinct
        return tuple((c, 1) for c in a.base.roots)
    orbits = a.simple_orbits
    counts: dict[Vector, int] = {}
    for c in a.base.roots:
        v = tuple(sum(c[i] for i in orb) for orb in orbits)
        counts[v] = counts.get(v, 0) + 1
    return tuple(sorted(counts.items()))


def folded_gram(a: DiagramAutomorphism) -> Matrix:
    """n^2 times the Gram matrix of the projected simple roots, n the order
    of sigma: an integer matrix with their Cartan matrix.  Every orbit size
    divides n, and n beta_O = (n/|O|) sum_{i in O} alpha_i, so entry
    (O, O') is (n/|O|)(n/|O'|) times the sum of (alpha_i, alpha_j) over
    i in O and j in O'."""
    g = a.base.gram
    n = a.order
    orbits = a.simple_orbits
    return tuple(tuple(n // len(o) * (n // len(p)) * sum(g[i][j] for i in o for j in p)
                       for p in orbits) for o in orbits)


class FoldingResult(Record):
    """Projected roots with their multiplicities and the folded roots, both
    as integer vectors over the projected simple roots, and the folded
    type."""

    __slots__ = ("projected_roots", "folded_roots", "folded_type")
    projected_roots: tuple[tuple[Vector, int], ...]
    folded_roots: tuple[Vector, ...]
    folded_type: CartanType


def expected_folded_type(t: CartanType, tag: str) -> CartanType:
    fam, r = t.family, t.rank
    if tag == "identity":
        return t
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
    raise ValueError(f"no folding entry for {t} with {tag!r}")


def folded_root_system(a: DiagramAutomorphism) -> FoldingResult:
    projected = project_roots(a)
    proj_set = {v for v, _ in projected}
    folded = tuple(v for v, _ in projected
                   if any(c % 2 for c in v) or tuple(c // 2 for c in v) not in proj_set)
    expected = expected_folded_type(a.base.cartan_type, a.tag)
    if len(a.simple_orbits) != expected.rank:
        raise ValueError("fixed-subspace dimension differs from folded rank")
    check_folded_roots(folded, folded_gram(a), expected)
    return FoldingResult(projected, folded, expected)


def check_folded_roots(roots: Sequence[Vector], gram: Matrix,
                       expected: CartanType) -> None:
    """Raise ValueError unless roots, integer vectors over a base whose
    inner products are gram (up to a positive scale), are the root system
    of the expected type with that base as its simple roots: the base's
    Cartan matrix is the type's under some assignment of its vectors to the
    type's nodes, and the closure of the base under its own simple
    reflections, in its own coordinates, is exactly the set.  That closure
    is the root system of a type with that Cartan matrix.  Linear in the
    root count and the rank."""
    cartan = cartan_from_gram(gram)
    if _match_cartan(cartan, cartan_matrix(expected)) is None:
        raise ValueError(f"folded Cartan matrix does not match {expected}")
    if set(_closure(cartan, root_count(expected))[0]) != set(roots):
        raise ValueError(f"folded set is not the root system of {expected}")


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


# ---------------------------------------------------------------------------
# applicability criteria
# ---------------------------------------------------------------------------

class OrbitCriterion(Record):
    __slots__ = ("orbit_count", "folded_root_count")
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
    return OrbitCriterion(len(orbits_on_roots(a)), len(folding.folded_roots))


def wsigma_preserves_folded(rows: Sequence[Vector],
                            folding: FoldingResult) -> bool:
    """Whether the group generated by the reflections with the given rows
    on the fixed subspace (:func:`twistloop.weyl.steinberg_rows`; row k
    changes coordinate k) permutes the folded root set.  A finite group
    permutes a finite set exactly when its generators do, so only the
    generators are checked, each against every folded root, as integer
    vectors over the projected simple roots: v changes in entry k alone,
    by row_k . v."""
    rank = folding.folded_type.rank
    if len(rows) > rank or any(len(row) != rank for row in rows):
        raise ValueError("restricted group acts in the wrong dimension")
    roots = folding.folded_roots
    root_set = set(roots)
    for k, row in enumerate(rows):
        for v in roots:
            d = sum(map(mul, row, v))
            if d:
                image = list(v)
                image[k] += d
                if tuple(image) not in root_set:
                    return False
    return True


# ---------------------------------------------------------------------------
# fixed-subgroup bookkeeping for the coefficient-exclusion report
# ---------------------------------------------------------------------------

class FixedGroupInfo(Record):
    __slots__ = ("note", "component_counts")
    note: str
    component_counts: tuple[int, ...]  # |pi_0| for the documented representatives


def fixed_group_info(t: CartanType, tag: str) -> FixedGroupInfo:
    fam, r = t.family, t.rank
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
    raise ValueError(f"no fixed-subgroup entry for {t} with {tag!r}")
