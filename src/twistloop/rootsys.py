"""Root systems for the simple families A-G in their classical rational
coordinates.

Realizations follow the usual conventions: A_r lives in the sum-zero
hyperplane of (r+1)-space with roots e_i - e_j; B/C/D use signed
coordinate vectors in r-space; G_2 sits in the sum-zero plane of 3-space;
F_4 and E_6/E_7/E_8 use their standard half-integer realizations.  All
coordinates are exact rationals.

Every constructed system is self-verified: classical root count, Cartan
matrix shape, integrality and uniform sign of root coordinates over the
simple base, and product-of-degrees == Weyl order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import (Matrix, Scalar, Vector, mat_vec, matrix, rank, solve,
                    vec_dot, vec_scale, vec_sub, vector)

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

# Rank windows per family.  B_1, C_1 and D_2 are admitted beyond the
# irreducible-diagram ranges: D_2 is needed as an input (even orthogonal
# groups of rank 2) and B_1 arises as a folded type; the classical
# formulas below all remain consistent at these ranks.
_RANK_BOUNDS = {"A": (1, None), "B": (1, None), "C": (1, None),
                "D": (2, None), "E": (6, 8), "F": (4, 4), "G": (2, 2)}


@dataclass(frozen=True, order=True)
class CartanType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        lo, hi = _RANK_BOUNDS[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise ValueError(f"rank {self.rank} out of range for family {self.family}")

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
    branch vertex attached to node 4)."""
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


def reflect(x: Vector, root: Vector, gram: Matrix | None = None) -> Vector:
    """Reflection of x through the hyperplane orthogonal to root."""
    if gram is None:
        num, den = vec_dot(x, root), vec_dot(root, root)
    else:
        gr = mat_vec(gram, root)
        num, den = vec_dot(x, gr), vec_dot(root, gr)
    c = Fraction(2 * num, 1) / den
    return vec_sub(x, vec_scale(c, root))


def _closure(simple: Sequence[Vector], gram: Matrix | None = None,
             limit: int = 100000) -> tuple[Vector, ...]:
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for x in frontier:
            for a in simple:
                y = reflect(x, a, gram)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
            if len(seen) > limit:
                raise ValueError("root closure did not terminate")
        frontier = nxt
    return tuple(sorted(seen))


class RootSystem:
    """Immutable bundle of roots, simple roots, Cartan data and the Weyl
    invariant-degree table.

    ``lattice_coords[i]`` gives root i as an integer vector over the simple
    base; ``gram`` is None when the ambient inner product is the standard
    dot product (all classical builds), otherwise the Gram matrix of the
    ambient basis (used for folded systems realized in fixed-subspace
    coordinates).
    """

    def __init__(self, cartan_type: CartanType, simple_roots: Sequence[Vector],
                 roots: Sequence[Vector], gram: Matrix | None = None):
        self.cartan_type = cartan_type
        self.simple_roots = tuple(simple_roots)
        self.roots = tuple(sorted(roots))
        self.ambient_dim = len(self.simple_roots[0])
        self.gram = gram
        self.weyl_order = weyl_order(cartan_type)
        self.degrees = degrees(cartan_type)
        self._validate_counts()
        self.cartan_matrix = self._cartan_matrix()
        self.lattice_coords = self._lattice_coords()
        self.root_index = {v: i for i, v in enumerate(self.roots)}
        self.positive_mask = tuple(all(c >= 0 for c in lc) for lc in self.lattice_coords)

    # -- construction-time verification -------------------------------------
    def _validate_counts(self):
        expected = root_count(self.cartan_type)
        if len(self.roots) != expected:
            raise ValueError(f"{self.cartan_type}: built {len(self.roots)} roots, "
                             f"expected {expected}")
        if len(self.simple_roots) != self.cartan_type.rank:
            raise ValueError("simple root count differs from rank")
        prod = math.prod(self.degrees)
        if prod != self.weyl_order:
            raise ValueError("degree product disagrees with Weyl order")
        root_set = set(self.roots)
        for v in self.roots:
            if all(c == 0 for c in v):
                raise ValueError("zero vector among roots")
            if tuple(-c for c in v) not in root_set:
                raise ValueError("root set not closed under negation")

    def inner(self, x: Vector, y: Vector) -> Scalar:
        if self.gram is None:
            return vec_dot(x, y)
        return vec_dot(x, mat_vec(self.gram, y))

    def _cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        rows = []
        for ai in self.simple_roots:
            row = []
            for aj in self.simple_roots:
                c = Fraction(2 * Fraction(self.inner(ai, aj)), 1) / self.inner(aj, aj)
                if c.denominator != 1:
                    raise ValueError("non-integral Cartan entry")
                row.append(int(c))
            rows.append(tuple(row))
        cm = tuple(rows)
        for i in range(len(cm)):
            if cm[i][i] != 2:
                raise ValueError("Cartan diagonal must be 2")
            for j in range(len(cm)):
                if i != j and cm[i][j] not in (0, -1, -2, -3):
                    raise ValueError(f"Cartan entry {cm[i][j]} out of range")
        return cm

    def _lattice_coords(self) -> tuple[tuple[int, ...], ...]:
        base = matrix(zip(*self.simple_roots))  # columns are simple roots
        coords = []
        for v in self.roots:
            x = solve(base, v)
            if x is None:
                raise ValueError("root outside the simple-root span")
            ints = []
            for c in x:
                f = Fraction(c)
                if f.denominator != 1:
                    raise ValueError("non-integer root coordinate")
                ints.append(int(f))
            if not (all(c >= 0 for c in ints) or all(c <= 0 for c in ints)):
                raise ValueError("root coordinates of mixed sign")
            coords.append(tuple(ints))
        return tuple(coords)

    # -- queries --------------------------------------------------------------
    def positive_roots(self) -> tuple[Vector, ...]:
        pos = [(sum(lc), lc, v) for v, lc in zip(self.roots, self.lattice_coords)
               if all(c >= 0 for c in lc)]
        return tuple(v for _, _, v in sorted(pos))

    def __repr__(self):
        return f"RootSystem({self.cartan_type}, {len(self.roots)} roots)"


def build_root_system(t: CartanType) -> RootSystem:
    simple = simple_root_vectors(t)
    roots = _closure(simple)
    return RootSystem(t, simple, roots)


def cartan_matrix_of_type(t: CartanType) -> tuple[tuple[int, ...], ...]:
    """Standard Cartan matrix without building the full root set."""
    simple = simple_root_vectors(t)
    rows = []
    for ai in simple:
        row = []
        for aj in simple:
            row.append(int(Fraction(2 * Fraction(vec_dot(ai, aj)), 1) / vec_dot(aj, aj)))
        rows.append(tuple(row))
    return tuple(rows)
