"""Diagram automorphisms, their rows on the fixed subspace, and the
folding they read off the types alone.

The canonical representative of an outer automorphism class is the
diagram automorphism sigma permuting the simple nodes, which preserves the
Dynkin diagram, its edges and the lengths of the simple roots, and so the
Cartan matrix.  Over the simple base sigma is a coordinate permutation,
c'[perm[j]] = c[j], so it permutes the roots and preserves the positive
system, and it commutes with negation.  Its fixed subspace has the
projected simple roots beta_O = pi(alpha_i), i in O, as a basis, one per
sigma-orbit O of simple nodes, where pi is the average over sigma's
powers (beta_O is the orbit sum of simple roots divided by |O|).  A root
c projects to the integer vector of its orbit sums, (sum_{i in O} c_i)_O.

The folded root system is the set of indivisible projected roots (v with
v/2 not a projection), which reproduces the classical folding table
(:func:`expected_folded_type`):

    identity        -> same type        A_{2m-1} flip -> C_m
    A_{2m}  flip    -> B_m              D_n flip      -> B_{n-1}
    D_4 order three -> G_2              E_6 flip      -> F_4

The beta_O are the folded system's own simple roots, and Steinberg's
generators of W^sigma (:func:`twistloop.weyl.steinberg_rows`) act on the
fixed subspace as their simple reflections, s_k(v) = v + (row_k . v) e_k
(Steinberg 1968), so the rows are the folded Cartan matrix's columns
negated, C_jk = -row_k[j].  The pipeline (:func:`twist_rows`) reads every
twist's rows off the folded type's Cartan matrix by that fact, for
sigma = identity the definition of the simple reflections; it walks and
matches no row and builds no root.  The rows' reflections generate the
folded Weyl group, which permutes the folded roots.  sigma has order 1,
2 or 3, so each of its orbits on the positive roots is one fixed root or
has as many roots as its order; distinct orbits have distinct
projections, so the orbit count is the number of positive projections,
and the orbit sizes follow from the two types' root counts
(:func:`orbit_sizes`).

The measured forms of these facts run in the tests and under the
oracle: :func:`positive_orbit_sizes` counts the fixed positive roots,
:func:`project_roots` projects them, and :func:`folded_root_system`
walks the rows, matches their Cartan matrix to the folded type's in
some order of the nodes and checks that the folded roots are its
closure under their raising reflections; the tests compare the matched
rows with the rows read.  The ambient matrix of sigma, its ambient fixed
subspace, the average over sigma's powers, the Gram matrix of the beta_O
(an integer multiple and in Fractions), a from-scratch classifier of the
folded set and sigma's permutation of the roots are test references in
:mod:`twistloop.oracle`.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import add, neg

from .exact import Record, Vector
from .rootsys import (CartanType, RootSystem, _closure, cartan_matrix,
                      dynkin_diagram, root_count)
from .weyl import _perm_orbits, _perm_order, steinberg_rows

AUTOMORPHISM_TAGS = ("identity", "flip", "triality", "triality2")


class DiagramAutomorphism(Record):
    """A Dynkin-diagram symmetry of a root system: its node permutation,
    order and tag."""

    __slots__ = ("base", "simple_perm", "order", "tag")
    base: RootSystem
    simple_perm: tuple[int, ...]
    order: int
    tag: str

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


def check_tag(t: CartanType, tag: str) -> None:
    """Raise ValueError unless tag names a diagram symmetry of type t, in
    O(1): the twist's node permutation is not built."""
    if tag not in AUTOMORPHISM_TAGS:
        raise ValueError(f"unknown automorphism spec {tag!r}")
    fam, r = t.family, t.rank
    if tag == "flip" and not ((fam == "A" and r >= 2) or fam == "D" or (fam, r) == ("E", 6)):
        raise ValueError(f"no diagram flip for type {t}")
    if tag in ("triality", "triality2") and (fam, r) != ("D", 4):
        raise ValueError("triality exists only for D4")


def simple_perm_for_tag(t: CartanType, tag: str) -> tuple[int, ...]:
    """The node permutation of a tag that :func:`check_tag` has passed."""
    fam, r = t.family, t.rank
    if tag == "identity":
        return tuple(range(r))
    if tag == "flip":
        if fam == "A":
            return tuple(r - 1 - i for i in range(r))
        if fam == "D":
            return tuple(range(r - 2)) + (r - 1, r - 2)
        return (5, 1, 4, 3, 2, 0)  # E6
    # D4: nodes 1 -> 3 -> 4 -> 1 with node 2 fixed, or the inverse cycle
    return (2, 1, 3, 0) if tag == "triality" else (3, 1, 0, 2)


def check_simple_perm(images: Sequence[int], rank: int, base: int = 0) -> None:
    """Validate explicit images of the simple nodes, numbered from base
    (0 in the library, 1 on the command line): one image per node, each
    naming a node, and no node named twice."""
    if len(images) != rank:
        raise ValueError(f"permutation has {len(images)} images, expected one "
                         f"per simple node ({rank})")
    seen, repeated = set(), set()
    for x in images:
        if not base <= x < base + rank:
            raise ValueError(f"permutation image {x} out of range "
                             f"{base}..{base + rank - 1}")
        (repeated if x in seen else seen).add(x)
    if repeated:
        raise ValueError(f"permutation is not a bijection: "
                         f"{', '.join(map(str, sorted(repeated)))} named more than once")


def _classify_perm(t: CartanType, perm: tuple[int, ...]) -> str:
    order = _perm_order(perm)
    if order == 1:
        return "identity"
    if order == 2:
        return "flip"
    if order == 3 and (t.family, t.rank) == ("D", 4):
        return "triality"
    raise ValueError(f"permutation of order {order} is not a supported diagram symmetry")


def resolve_twist(t: CartanType, spec: str | Sequence[int]) -> tuple[tuple[int, ...], str]:
    """Node permutation and tag of a twist given as a tag or as explicit
    simple-node images (0-based), checked to be a diagram symmetry on the
    Dynkin diagram.  Needs only the type, not its roots or its Cartan
    matrix."""
    if isinstance(spec, str):
        tag = spec
        check_tag(t, tag)
        perm = simple_perm_for_tag(t, tag)
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
    diagram (:func:`resolve_twist`).  The roots are not permuted."""
    perm, tag = resolve_twist(rs.cartan_type, spec)
    return DiagramAutomorphism(rs, perm, _perm_order(perm), tag)


# ---------------------------------------------------------------------------
# orbits, projection, folding
# ---------------------------------------------------------------------------

def positive_orbit_sizes(a: DiagramAutomorphism) -> tuple[int, ...]:
    """Sorted orbit sizes of the automorphism on the positive roots.  Its
    order is 1, 2 or 3, so an orbit is one root that sigma fixes
    (c[i] == c[perm[i]] for every node i) or has as many roots as its
    order: only the fixed roots are counted, and no root is permuted."""
    positive = a.base.positive
    moved = [(i, p) for i, p in enumerate(a.simple_perm) if i != p]
    fixed = sum(all(c[i] == c[p] for i, p in moved) for c in positive)
    return (1,) * fixed + (a.order,) * ((len(positive) - fixed) // a.order)


def orbit_sizes(t: CartanType, folded: CartanType) -> tuple[int, ...]:
    """The sorted sizes of :func:`positive_orbit_sizes`, from t and its
    twist's folded type: t for the identity, G2 for a triality (o = 3),
    else a flip's (o = 2).  sigma sends an orbit to one projection, and
    distinct orbits to distinct ones, so the N positive roots form k
    orbits, k the number of positive projections: the folded type's, and
    for an A_2m flip the m doubled short ones too (they form BC_m).  Each
    orbit is one fixed root or has o roots: sigma fixes (o k - N) / (o - 1)."""
    n = root_count(t) // 2
    if folded == t:
        return (1,) * n
    order = 3 if folded.family == "G" else 2
    k = root_count(folded) // 2
    if t.family == "A" and t.rank % 2 == 0:
        k += folded.rank
    fixed = (order * k - n) // (order - 1)
    return (1,) * fixed + (order,) * ((n - fixed) // order)


def project_roots(a: DiagramAutomorphism) -> tuple[tuple[Vector, int], ...]:
    """Projections of the positive roots over the projected simple roots
    beta_O, with their multiplicities, sorted: root c goes to its orbit
    sums (sum_{i in O} c_i)_O.  The projection commutes with negation, so
    the negative roots' are these negated.  Each orbit sum is read through
    one index list per position in the orbits, a padded 0 standing in past
    a short orbit's end."""
    orbits = a.simple_orbits
    pad = len(a.simple_perm)
    first, *rest = [[orb[p] if p < len(orb) else pad for orb in orbits]
                    for p in range(a.order)]
    counts: dict[Vector, int] = {}
    for c in a.base.positive:
        get = (c + (0,)).__getitem__
        v = map(get, first)
        for index in rest:
            v = map(add, v, map(get, index))
        v = tuple(v)
        counts[v] = counts.get(v, 0) + 1
    return tuple(sorted(counts.items()))


class FoldingResult(Record):
    """The folded positive roots, integer vectors over the projected simple
    roots and sorted, the folded type, the rows
    (:func:`twistloop.weyl.steinberg_rows`) that certified it, and the row
    matched to each node of the folded type's Dynkin diagram."""

    __slots__ = ("folded_roots", "folded_type", "rows", "nodes")
    folded_roots: tuple[Vector, ...]
    folded_type: CartanType
    rows: tuple[Vector, ...]
    nodes: tuple[int, ...]


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
    """Fold the positive roots, certified on the walked rows
    (:func:`check_folded_roots`): the projections v with v/2 not a
    projection; for sigma = identity the positive roots, none dropped."""
    t = a.base.cartan_type
    if a.order == 1:
        folded, expected = a.base.positive, t
    else:
        projected = project_roots(a)
        found = {v for v, _ in projected}
        folded = tuple([v for v, _ in projected
                        if any(c % 2 for c in v) or tuple([c // 2 for c in v]) not in found])
        expected = expected_folded_type(t, a.tag)
    rows = steinberg_rows(t, a.simple_perm)  # one per sigma-orbit
    return FoldingResult(folded, expected, rows, check_folded_roots(folded, rows, expected))


def twist_rows(folded: CartanType) -> tuple[Vector, ...]:
    """Steinberg's rows for any twist whose folded type
    (:func:`expected_folded_type`) is folded, one per node of its Dynkin
    diagram, read off its Cartan matrix: W^sigma acts on the fixed
    subspace as the folded Weyl group, each generator as the simple
    reflection in a projected simple root (Steinberg 1968), so row k of
    s_k is column k of the folded Cartan matrix negated (C_jk = -row_k[j]).
    For sigma = identity the folded type is the input type.  No row is walked
    or matched and no root is built; that the walk
    (:func:`twistloop.weyl.steinberg_rows`) gives these rows in some order
    of the nodes is the reference fold's check (:func:`folded_root_system`)."""
    return tuple(tuple(map(neg, col)) for col in zip(*cartan_matrix(folded)))


def _rows_cartan(rows: Sequence[Vector]) -> tuple[tuple[int, ...], ...]:
    """The Cartan matrix C_jk = -row_k[j] of the reflections with these rows."""
    return tuple(zip(*[map(neg, row) for row in rows]))


def check_folded_roots(roots: Sequence[Vector], rows: Sequence[Vector],
                       expected: CartanType) -> tuple[int, ...]:
    """Raise ValueError unless roots, integer vectors over a base in
    ascending order, are the positive roots of the expected type with that
    base as its simple roots and the reflections with the given rows (row
    k changes coordinate k alone, by row_k . v) as its simple reflections:
    the Cartan matrix C_jk = -row_k[j] is the type's in some order of the
    nodes, and the roots are the closure of the base under those
    reflections' raising steps, as the closure sorts it: one tuple
    comparison.  The group then permutes the roots and their negatives.
    Linear in the root count and the rank.  Returns
    that order: the row matched to each node of the type's Dynkin
    diagram."""
    n = expected.rank
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError("folded rows act in the wrong dimension")
    cartan = _rows_cartan(rows)
    nodes = _match_cartan(cartan, cartan_matrix(expected))
    if nodes is None:
        raise ValueError(f"folded Cartan matrix does not match {expected}")
    if _closure(cartan, root_count(expected)) != tuple(roots):
        raise ValueError(f"folded set is not the root system of {expected}")
    return nodes


def _match_cartan(cand: Sequence[Sequence[int]],
                  std: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    n = len(std)
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
    """sigma's orbits on the roots against the folded roots: equality implies
    the projected and folded systems coincide; inequality is inconclusive."""

    __slots__ = ("orbit_count", "folded_root_count")
    orbit_count: int
    folded_root_count: int

    @property
    def holds(self) -> bool:
        return self.orbit_count == self.folded_root_count


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
