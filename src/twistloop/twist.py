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
generators of W^sigma, the longest elements w_O of the parabolic
subgroups, one per sigma-orbit O, act on the fixed subspace as their
simple reflections, s_k(v) = v + (row_k . v) e_k (Steinberg 1968), so the
rows are the folded Cartan matrix's columns negated, C_jk = -row_k[j].
The pipeline (:func:`twist_rows`) reads every twist's rows off the
folded type's Cartan matrix by that fact, for sigma = identity the
definition of the simple reflections; it walks and matches no row and
builds no root.  sigma has order 1, 2 or 3, so each of its orbits on the
positive roots is one fixed root or has as many roots as its order;
distinct orbits have distinct projections, so the orbit count is the
number of positive projections, and the orbit sizes follow from the two
types' root counts (:func:`orbit_sizes`).  The walk, the match, the
projection and every other measured form of these facts are references
in :mod:`twistloop.oracle`.

The folding table is the only check of a tag, and :func:`resolve_twist`
the only check of explicit node images; no pipeline routine forms a
tag's node permutation, which is reference data in :mod:`twistloop.oracle`.
A twist is resolved once, to its tag and folded type (:func:`twist_of`),
and every other fact the report states of it (the fixed subgroup's note,
its component counts, the further notes) is its one entry of
:data:`TWISTS` (:func:`twist_entry`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from operator import neg

from .exact import Record, Vector
from .rootsys import CartanType, cartan_matrix, dynkin_diagram, root_count

AUTOMORPHISM_TAGS = ("identity", "flip", "triality", "triality2")


def _is_diagram_symmetry(t: CartanType, perm: Sequence[int]) -> bool:
    """Whether the bijection perm keeps each simple root's squared length l
    and the Dynkin diagram's edges, in O(r): off the diagonal A_ij is 0, or
    -max(l_i, l_j) / l_j at an edge, so these preserve the Cartan matrix."""
    lengths, edges = dynkin_diagram(t)
    return (all(lengths[p] == length for p, length in zip(perm, lengths))
            and {frozenset((perm[i], perm[j])) for i, j in edges}
            == set(map(frozenset, edges)))


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


def _perm_orbits(perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    orbits, seen = [], set()
    for start in range(len(perm)):
        if start not in seen:
            orb = [start]
            while perm[orb[-1]] != start:
                orb.append(perm[orb[-1]])
            seen.update(orb)
            orbits.append(tuple(orb))
    return tuple(orbits)


def _perm_order(perm: Sequence[int]) -> int:
    """The order of a permutation: the lcm of its cycle lengths."""
    return math.lcm(*map(len, _perm_orbits(perm)))


def resolve_twist(t: CartanType, images: Sequence[int]) -> str:
    """The tag of a twist given as explicit simple-node images (0-based),
    checked to be a diagram symmetry on the Dynkin diagram.  Needs only
    the type, not its roots or its Cartan matrix; a tag is checked by the
    folding table (:func:`expected_folded_type`), not here."""
    check_simple_perm(images, t.rank)
    order = _perm_order(images)
    if order > 2 and not (order == 3 and (t.family, t.rank) == ("D", 4)):
        raise ValueError(f"permutation of order {order} is not a supported diagram symmetry")
    if not _is_diagram_symmetry(t, images):
        raise ValueError("permutation does not preserve the Cartan matrix")
    return ("identity", "flip", "triality")[order - 1]


# ---------------------------------------------------------------------------
# orbits and folding
# ---------------------------------------------------------------------------

def orbit_sizes(t: CartanType, folded: CartanType) -> tuple[int, ...]:
    """The sorted sizes of sigma's orbits on the positive roots, from t and
    its twist's folded type: t for the identity, G2 for a triality (o = 3),
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


def expected_folded_type(t: CartanType, tag: str) -> CartanType:
    """The folded type of t's twist named by tag, and the only check of a
    tag, in O(1): ValueError unless tag names a diagram symmetry of t.  No
    node permutation is formed."""
    fam, r = t.family, t.rank
    if tag == "identity":
        return t
    if tag == "flip":
        if fam == "A" and r >= 2:
            return CartanType("C" if r % 2 else "B", (r + 1) // 2)
        if fam == "D":
            return CartanType("B", r - 1)
        if (fam, r) == ("E", 6):
            return CartanType("F", 4)
        raise ValueError(f"no diagram flip for type {t}")
    if tag in ("triality", "triality2"):
        if (fam, r) == ("D", 4):
            return CartanType("G", 2)
        raise ValueError("triality exists only for D4")
    raise ValueError(f"unknown automorphism spec {tag!r}")


def twist_of(t: CartanType, spec: str | Sequence[int]) -> tuple[str, CartanType]:
    """The tag and folded type of a twist of t: a tag is checked by the
    folding table in O(1) and forms no node permutation; only explicit
    images are resolved on the Dynkin diagram (:func:`resolve_twist`)."""
    tag = spec if isinstance(spec, str) else resolve_twist(t, spec)
    return tag, expected_folded_type(t, tag)


def twist_rows(folded: CartanType) -> tuple[Vector, ...]:
    """Steinberg's rows for any twist whose folded type
    (:func:`expected_folded_type`) is folded, one per node of its Dynkin
    diagram, read off its Cartan matrix: W^sigma acts on the fixed
    subspace as the folded Weyl group, each generator as the simple
    reflection in a projected simple root (Steinberg 1968), so row k of
    s_k is column k of the folded Cartan matrix negated (C_jk = -row_k[j]).
    For sigma = identity the folded type is the input type.  No row is
    walked or matched and no root is built; that the walk gives these rows
    in some order of the nodes is the reference fold's check
    (:func:`twistloop.oracle.folded_root_system`).

    The rows come in the coset chain's order: nodes n..1 for B, C and D,
    1..n otherwise.  Any order multiplies to |W^sigma|; this one ends in
    the smallest coordinate orbit (n + 1 for A_n, 2n for B_n, C_n and D_n,
    27, 56 and 240 for E6-E8, 24 for F4, 6 for G2), which the Jacobian
    reuses, and keeps the functionals the chain closes polynomial in n."""
    rows = tuple(tuple(map(neg, col)) for col in zip(*cartan_matrix(folded)))
    return tuple(row[::-1] for row in rows[::-1]) if folded.family in "BCD" else rows


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
# the fixed subgroup and the report's notes, one entry per twist
# ---------------------------------------------------------------------------

_UNITARY = ("the unitary-group form of this twist has the same series away from "
            "characteristic 2 and primes dividing the rank plus one")

# keyed by (family, folded family), the identity by None: the fixed subgroup's note,
# the component counts |pi_0| of its documented representatives, and the further notes
TWISTS = {
    None: ("untwisted: the fixed subgroup is the whole (connected) group", (1,), ()),
    ("A", "C"): ("order-two twist of the special unitary group: the chamber-preserving "
                 "representative fixes a connected compact symplectic subgroup; the "
                 "conjugation representative fixes an orthogonal-type subgroup, counted "
                 "conservatively with two components", (1, 2),
                 (_UNITARY, "an equivalent route through the even orthogonal group "
                            "extended by its diagram symmetry yields the same series")),
    ("A", "B"): ("order-two twist of the special unitary group: the fixed subgroup is an "
                 "odd orthogonal group, counted conservatively with two components for "
                 "the conjugation representative", (1, 2), (_UNITARY,)),
    ("D", "B"): ("orientation-reversing twist of the even orthogonal group: the fixed "
                 "subgroup is a full odd orthogonal group with two components; its "
                 "identity component is the odd special orthogonal group", (2, 2), ()),
    ("D", "G"): ("order-three twist: the fixed subgroup is the connected exceptional "
                 "group of rank two", (1,), ()),
    ("E", "F"): ("order-two twist: the fixed subgroup is the connected exceptional group "
                 "of rank four", (1,), ("every characteristic greater than 30 avoids the "
                                        "excluded set {2, 3, 5}",)),
}


def twist_entry(t: CartanType, folded: CartanType) -> tuple:
    """The :data:`TWISTS` entry (note, component counts, further notes) of
    t's twist with this folded type, the identity's when folded is t."""
    return TWISTS[None if folded == t else (t.family, folded.family)]
