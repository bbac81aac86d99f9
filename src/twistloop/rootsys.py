"""Root systems for the simple families A-G as integer vectors over the
simple base.

Each type's data are its invariant-degree table, its Weyl order, its root
count and the classical realization of its simple roots (A_r in the
sum-zero hyperplane of (r+1)-space, B/C/D in signed coordinates of
r-space, G_2 in the sum-zero plane of 3-space, F_4 and E_6/E_7/E_8 in
their half-integer realizations).  That realization is read once, for the
Gram matrix of the simple roots and from it the Cartan matrix.  The roots
are then the closure of the unit vectors under the integer simple
reflections s_i(c) = c - (sum_j c_j A_ji) e_i; every later stage works in
these coordinates.

Every constructed system is self-verified: Cartan matrix entries, root
count, uniform sign of root coordinates, closure under negation, and
product-of-degrees == Weyl order.  The closure of the ambient realization
itself is a test reference in :mod:`twistloop.oracle`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, total_ordering

from .exact import Matrix, Record, Vector, vec_dot, vec_scale, vec_sub, vector

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


def _unit(n: int, i: int) -> Vector:
    return tuple(1 if j == i else 0 for j in range(n))


def simple_root_vectors(t: CartanType) -> tuple[Vector, ...]:
    """Simple roots in the classical ambient coordinates, in the standard
    chain ordering (for D, the fork is the last two; for E, node 2 is the
    branch vertex attached to node 4).  The pipeline reads only their
    inner products (:func:`simple_gram`)."""
    r = t.rank
    if t.family == "A":
        n = r + 1
        return tuple(vec_sub(_unit(n, i), _unit(n, i + 1)) for i in range(r))
    if t.family == "B":
        chain = [vec_sub(_unit(r, i), _unit(r, i + 1)) for i in range(r - 1)]
        return tuple(chain + [_unit(r, r - 1)])
    if t.family == "C":
        chain = [vec_sub(_unit(r, i), _unit(r, i + 1)) for i in range(r - 1)]
        return tuple(chain + [vec_scale(2, _unit(r, r - 1))])
    if t.family == "D":
        chain = [vec_sub(_unit(r, i), _unit(r, i + 1)) for i in range(r - 1)]
        fork = vector([0] * (r - 2) + [1, 1])
        return tuple(chain + [fork])
    if t.family == "G":
        return (vector([1, -1, 0]), vector([-2, 1, 1]))
    if t.family == "F":
        h = Fraction(1, 2)
        return (vector([0, 1, -1, 0]), vector([0, 0, 1, -1]),
                vector([0, 0, 0, 1]), vector([h, -h, -h, -h]))
    # E_6, E_7, E_8 share the 8-dimensional realization.
    h = Fraction(1, 2)
    alpha = [vector([h, -h, -h, -h, -h, -h, -h, h]),
             vector([1, 1, 0, 0, 0, 0, 0, 0]),
             vector([-1, 1, 0, 0, 0, 0, 0, 0]),
             vector([0, -1, 1, 0, 0, 0, 0, 0]),
             vector([0, 0, -1, 1, 0, 0, 0, 0]),
             vector([0, 0, 0, -1, 1, 0, 0, 0]),
             vector([0, 0, 0, 0, -1, 1, 0, 0]),
             vector([0, 0, 0, 0, 0, -1, 1, 0])]
    return tuple(alpha[:r])


# The Gram matrix, the Cartan matrix and the root closure are read once per
# argument in a process: compute() needs the input type's Cartan matrix to
# check the twist before it builds the roots, and the folded type's Cartan
# matrix and roots to certify the folding (the input type's again for an
# identity twist).  The results are tuples, so sharing them is safe.
_memo = lru_cache(maxsize=64)


@_memo
def simple_gram(t: CartanType) -> Matrix:
    """Inner products (alpha_i, alpha_j) of the simple roots, read off
    their classical realization."""
    simple = simple_root_vectors(t)
    return tuple(tuple(vec_dot(a, b) for b in simple) for a in simple)


def cartan_from_gram(gram: Matrix) -> CartanMatrix:
    """A_ij = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j), checked to be a
    Cartan matrix: integral, 2 on the diagonal, 0..-3 off it."""
    cm = []
    for i, row in enumerate(gram):
        entries = []
        for j, g in enumerate(row):
            c = Fraction(2 * g) / gram[j][j]
            if c.denominator != 1:
                raise ValueError("non-integral Cartan entry")
            if c not in ((2,) if i == j else (0, -1, -2, -3)):
                raise ValueError(f"Cartan entry {c} out of range at {(i, j)}")
            entries.append(int(c))
        cm.append(tuple(entries))
    return tuple(cm)


@_memo
def cartan_matrix(t: CartanType) -> CartanMatrix:
    return cartan_from_gram(simple_gram(t))


def simple_reflection(c: Root, i: int, cartan: CartanMatrix) -> Root:
    """s_i(c) = c - <c, alpha_i^vee> e_i over the simple base, where
    <alpha_j, alpha_i^vee> = A_ji."""
    k = sum(cj * row[i] for cj, row in zip(c, cartan))
    if not k:
        return c
    out = list(c)
    out[i] -= k
    return tuple(out)


@_memo
def _closure(cartan: CartanMatrix,
             limit: int) -> tuple[tuple[Root, ...], tuple[tuple[Root, ...], ...]]:
    """Closure of the simple roots (unit vectors) under the simple
    reflections, sorted, and the images s_i(c) of each root c it computed
    on the way; more than limit roots is an error."""
    r = len(cartan)
    frontier = [_unit(r, i) for i in range(r)]
    images = dict.fromkeys(frontier)
    while frontier:
        nxt = []
        for c in frontier:
            images[c] = row = tuple(simple_reflection(c, i, cartan) for i in range(r))
            for d in row:
                if d not in images:
                    images[d] = None
                    nxt.append(d)
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
    ``roots``; ``simple_roots`` are the unit
    vectors, and ``gram`` holds the inner products of the simple roots.
    """

    def __init__(self, cartan_type: CartanType):
        t = cartan_type
        self.cartan_type = t
        self.gram = simple_gram(t)
        self.cartan_matrix = cartan_matrix(t)
        self.roots, self.reflections = _closure(self.cartan_matrix, root_count(t))
        self.simple_roots = tuple(_unit(t.rank, i) for i in range(t.rank))
        self.root_index = {c: i for i, c in enumerate(self.roots)}
        self.positive_mask = tuple(all(x >= 0 for x in c) for c in self.roots)
        self.weyl_order = weyl_order(t)
        self.degrees = degrees(t)
        self._validate()

    def _validate(self):
        expected = root_count(self.cartan_type)
        if len(self.roots) != expected:
            raise ValueError(f"{self.cartan_type}: built {len(self.roots)} roots, "
                             f"expected {expected}")
        if math.prod(self.degrees) != self.weyl_order:
            raise ValueError("degree product disagrees with Weyl order")
        for c in self.roots:
            if not (all(x >= 0 for x in c) or all(x <= 0 for x in c)):
                raise ValueError("root coordinates of mixed sign")
            if tuple(-x for x in c) not in self.root_index:
                raise ValueError("root set not closed under negation")

    def positive_roots(self) -> tuple[Root, ...]:
        return tuple(c for c, pos in zip(self.roots, self.positive_mask) if pos)

    def __repr__(self):
        return f"RootSystem({self.cartan_type}, {len(self.roots)} roots)"


def build_root_system(t: CartanType) -> RootSystem:
    return RootSystem(t)
