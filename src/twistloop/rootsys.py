"""Root systems for the simple families A-G as integer vectors over the
simple base, read off the Dynkin diagram.

Each type's data are its invariant-degree table, its Weyl order, its root
count and its Dynkin diagram: the edges between the simple nodes and the
squared length of each simple root, 2 for the short roots (every root of
A, D and E) and 4 or 6 for the long ones (B, C, F and G).  Nodes joined by
an edge have inner product minus half the larger squared length, other
distinct nodes 0, so the Gram matrix of the simple roots is an integer
matrix, and the Cartan matrix A_ij = 2 (alpha_i, alpha_j) /
(alpha_j, alpha_j) follows from it in O(r^2) integer steps.  The roots
are then the closure of the unit vectors under the integer simple
reflections s_i(c) = c - <c, alpha_i^vee> e_i.  The closure carries each
root's pairings (<c, alpha_i^vee>)_i and moves them by one row of the
Cartan matrix per reflection, so an image costs O(r), and one the
pairing leaves in place costs nothing.  Every later stage works in these
coordinates.

Every constructed system is self-verified: Cartan matrix entries, root
count, uniform sign of root coordinates, closure under negation, and
product-of-degrees == Weyl order.  The classical realization of the
simple roots in ambient coordinates, its Gram matrix and the closure of
its roots are test references in :mod:`twistloop.oracle`.
"""

from __future__ import annotations

import math
from functools import lru_cache, total_ordering
from operator import add

from .exact import Matrix, Record, check_int

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

Root = tuple[int, ...]
CartanMatrix = tuple[tuple[int, ...], ...]

# Rank windows per family.  B_1, C_1 and D_2 are admitted beyond the
# irreducible-diagram ranges: D_2 is needed as an input (even orthogonal
# groups of rank 2) and B_1 arises as a folded type; the classical
# formulas below all remain consistent at these ranks.
_RANK_BOUNDS = {"A": (1, None), "B": (1, None), "C": (1, None),
                "D": (2, None), "E": (6, 8), "F": (4, 4), "G": (2, 2)}


@total_ordering
class CartanType(Record):
    """A simple type: family letter and rank, ordered by (family, rank)."""

    __slots__ = ("family", "rank")
    family: str
    rank: int

    def _check(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        check_int("rank", self.rank)
        lo, hi = _RANK_BOUNDS[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise ValueError(f"rank {self.rank} out of range for family {self.family}")

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._key < other._key
        return NotImplemented

    def __str__(self):
        return f"{self.family}{self.rank}"


def weyl_order(t: CartanType) -> int:
    r = t.rank
    if t.family == "A":
        return math.factorial(r + 1)
    if t.family in ("B", "C"):
        return 2**r * math.factorial(r)
    if t.family == "D":
        return 2 ** (r - 1) * math.factorial(r)
    if t.family == "G":
        return 12
    if t.family == "F":
        return 1152
    return {6: 51840, 7: 2903040, 8: 696729600}[r]


def degrees(t: CartanType) -> tuple[int, ...]:
    """Degrees of the basic polynomial invariants of the Weyl group."""
    r = t.rank
    if t.family == "A":
        ds = range(2, r + 2)
    elif t.family in ("B", "C"):
        ds = range(2, 2 * r + 1, 2)
    elif t.family == "D":
        ds = list(range(2, 2 * r - 1, 2)) + [r]
    elif t.family == "G":
        ds = [2, 6]
    elif t.family == "F":
        ds = [2, 6, 8, 12]
    else:
        ds = {6: [2, 5, 6, 8, 9, 12],
              7: [2, 6, 8, 10, 12, 14, 18],
              8: [2, 8, 12, 14, 18, 20, 24, 30]}[r]
    return tuple(sorted(ds))


def root_count(t: CartanType) -> int:
    r = t.rank
    return {"A": r * (r + 1), "B": 2 * r * r, "C": 2 * r * r, "D": 2 * r * (r - 1),
            "G": 12, "F": 48,
            "E": {6: 72, 7: 126, 8: 240}.get(r, 0)}[t.family]


def _unit(n: int, i: int) -> Root:
    return tuple(1 if j == i else 0 for j in range(n))


# Node orders follow the classical realization: a chain, with for B and C
# the short or long node last, for D the fork as the last two nodes, and
# for E (Bourbaki's numbering, from 0) node 1 the branch attached to node 3.
_E_EDGES = ((0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7))


def dynkin_diagram(t: CartanType) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Squared lengths of the simple roots (2 for a short root or a root of
    a simply laced type, 4 or 6 for a long one) and the edges of the Dynkin
    diagram as node pairs."""
    fam, r = t.family, t.rank
    chain = tuple((i, i + 1) for i in range(r - 1))
    lengths = {"B": (4,) * (r - 1) + (2,), "C": (2,) * (r - 1) + (4,),
               "F": (4, 4, 2, 2), "G": (2, 6)}.get(fam, (2,) * r)
    if fam == "D":
        return lengths, chain[:r - 2] + (((r - 3, r - 1),) if r >= 3 else ())
    if fam == "E":
        return lengths, tuple((i, j) for i, j in _E_EDGES if j < r)
    return lengths, chain


def simple_gram(t: CartanType) -> Matrix:
    """Inner products (alpha_i, alpha_j) of the simple roots, an integer
    matrix read off the Dynkin diagram: the squared lengths on the
    diagonal, minus half the larger of the two at an edge (a single, double
    or triple bond between roots whose squared lengths are equal, in ratio
    2 or in ratio 3), and 0 elsewhere."""
    lengths, edges = dynkin_diagram(t)
    gram = [[0] * len(lengths) for _ in lengths]
    for i, length in enumerate(lengths):
        gram[i][i] = length
    for i, j in edges:
        gram[i][j] = gram[j][i] = -(max(lengths[i], lengths[j]) // 2)
    return tuple(map(tuple, gram))


def cartan_from_gram(gram: Matrix) -> CartanMatrix:
    """A_ij = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j), checked to be a
    Cartan matrix: integral, 2 on the diagonal, 0..-3 off it.  The entries
    of gram may be ints or Fractions; each quotient is one divmod."""
    cm = []
    for i, row in enumerate(gram):
        entries = []
        for j, g in enumerate(row):
            c, rest = divmod(2 * g, gram[j][j])
            if rest:
                raise ValueError("non-integral Cartan entry")
            if c not in ((2,) if i == j else (0, -1, -2, -3)):
                raise ValueError(f"Cartan entry {c} out of range at {(i, j)}")
            entries.append(c)
        cm.append(tuple(entries))
    return tuple(cm)


# The Cartan matrix and the root closure are read once per argument in a
# process: compute() needs the input type's to build the roots and the
# folded type's to certify the folding (the input type's again for an
# identity twist); an over-cap reject reads neither.  The results are
# tuples, so sharing them is safe.
_memo = lru_cache(maxsize=64)


@_memo
def cartan_matrix(t: CartanType) -> CartanMatrix:
    return cartan_from_gram(simple_gram(t))


@_memo
def _closure(cartan: CartanMatrix,
             limit: int) -> tuple[tuple[Root, ...], tuple[tuple[Root, ...], ...]]:
    """Closure of the simple roots (unit vectors) under the simple
    reflections, sorted, and the images s_i(c) of each root c it computed
    on the way; more than limit roots is an error.

    Each new root c comes with its pairings p_k = <c, alpha_k^vee>, row i
    of the Cartan matrix for alpha_i.  Then s_i(c) = c - p_i e_i, the
    image is c itself when p_i = 0, and the pairings of s_i(c) are
    p - p_i (A_i0, ..., A_i,r-1).
    """
    r = len(cartan)
    frontier = [(_unit(r, i), cartan[i]) for i in range(r)]
    images = dict.fromkeys(c for c, _ in frontier)
    while frontier:
        nxt = []
        for c, pairing in frontier:
            row = []
            for i, k in enumerate(pairing):
                if not k:
                    row.append(c)
                    continue
                d = list(c)
                d[i] -= k
                d = tuple(d)
                row.append(d)
                if d not in images:
                    images[d] = None
                    nxt.append((d, tuple([p - k * a for p, a in zip(pairing, cartan[i])])))
            images[c] = tuple(row)
        if len(images) > limit:
            raise ValueError(f"root closure passed {limit} roots")
        frontier = nxt
    roots = tuple(sorted(images))
    return roots, tuple(images[c] for c in roots)


class RootSystem:
    """Immutable bundle of roots, Cartan data and the Weyl invariant-degree
    table.

    ``roots[i]`` is root i as an integer vector over the simple base,
    ``reflections[i][k]`` is s_k of it, and ``root_index`` inverts
    ``roots``; ``simple_roots`` are the unit vectors, and ``gram`` holds
    the inner products of the simple roots (:func:`simple_gram`).
    """

    def __init__(self, cartan_type: CartanType):
        t = cartan_type
        self.cartan_type = t
        self.gram = simple_gram(t)
        self.cartan_matrix = cartan_matrix(t)
        self.roots, self.reflections = _closure(self.cartan_matrix, root_count(t))
        self.simple_roots = tuple(_unit(t.rank, i) for i in range(t.rank))
        self.root_index = {c: i for i, c in enumerate(self.roots)}
        self.positive_mask = tuple(min(c) >= 0 for c in self.roots)
        self.weyl_order = weyl_order(t)
        self.degrees = degrees(t)
        self._validate()

    def _validate(self):
        roots = self.roots
        expected = root_count(self.cartan_type)
        if len(roots) != expected:
            raise ValueError(f"{self.cartan_type}: built {len(roots)} roots, "
                             f"expected {expected}")
        if math.prod(self.degrees) != self.weyl_order:
            raise ValueError("degree product disagrees with Weyl order")
        # Negation reverses the lexicographic order, so a sorted set (the
        # closure returns the roots sorted) is closed under it exactly when
        # its i-th and i-th-from-last members add up to zero.  One pass over
        # those pairs checks every root's signs once and every pair's sum,
        # with no negated copy.
        for c, d in zip(roots[:len(roots) // 2], reversed(roots)):
            if min(c) < 0 < max(c) or min(d) < 0 < max(d):
                raise ValueError("root coordinates of mixed sign")
            if any(map(add, c, d)):
                raise ValueError("root set not closed under negation")

    def positive_roots(self) -> tuple[Root, ...]:
        return tuple(c for c, pos in zip(self.roots, self.positive_mask) if pos)

    def __repr__(self):
        return f"RootSystem({self.cartan_type}, {len(self.roots)} roots)"


def build_root_system(t: CartanType) -> RootSystem:
    return RootSystem(t)
