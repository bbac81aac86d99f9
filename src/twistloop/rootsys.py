"""The simple families A-G: each type's invariant-degree table, its Weyl
order, its root count and its Dynkin diagram, the edges between the
simple nodes and the squared length of each simple root, 2 for the short
roots (every root of A, D and E) and 4 or 6 for the long ones (B, C, F
and G), from which the Cartan matrix is written (:func:`cartan_matrix`).

No stage of :func:`twistloop.report.compute` builds a root: the roots,
their closure from the Cartan matrix and every other measured form of
these tables are references in :mod:`twistloop.oracle`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache, total_ordering

from .exact import Record, check_int

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

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
    """Degrees of the basic polynomial invariants of the Weyl group, ascending."""
    return tuple(ascending_degrees(t))


def ascending_degrees(t: CartanType) -> Iterator[int]:
    """The degrees of :func:`degrees`, one at a time, ascending: a reader
    that stops early, such as the order cap, does O(1) work per degree it
    reads, whatever the rank."""
    r = t.rank
    if t.family == "A":
        yield from range(2, r + 2)
    elif t.family in ("B", "C"):
        yield from range(2, 2 * r + 1, 2)
    elif t.family == "D":
        # the even degrees 2, 4, ..., 2r - 2, with r in its place among them
        yield from range(2, r, 2)
        yield r
        yield from range(r + r % 2, 2 * r - 1, 2)
    else:
        yield from {"G2": (2, 6), "F4": (2, 6, 8, 12), "E6": (2, 5, 6, 8, 9, 12),
                    "E7": (2, 6, 8, 10, 12, 14, 18),
                    "E8": (2, 8, 12, 14, 18, 20, 24, 30)}[str(t)]


def root_count(t: CartanType) -> int:
    r = t.rank
    return {"A": r * (r + 1), "B": 2 * r * r, "C": 2 * r * r, "D": 2 * r * (r - 1),
            "G": 12, "F": 48,
            "E": {6: 72, 7: 126, 8: 240}.get(r, 0)}[t.family]


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
    lengths = ((4,) * (r - 1) + (2,) if fam == "B" else (2,) * (r - 1) + (4,) if fam == "C"
               else (4, 4, 2, 2) if fam == "F" else (2, 6) if fam == "G" else (2,) * r)
    if fam == "D":
        return lengths, chain[:r - 2] + (((r - 3, r - 1),) if r >= 3 else ())
    if fam == "E":
        return lengths, tuple((i, j) for i, j in _E_EDGES if j < r)
    return lengths, chain


# The Cartan matrix is read once per type in a process: compute() reads
# one, the folded type's, to read W^sigma's rows off it, and closes no
# roots; an over-cap reject reads none.  The result is a tuple of tuples,
# so sharing it is safe.
@lru_cache(maxsize=64)
def cartan_matrix(t: CartanType) -> CartanMatrix:
    """A_ij = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j), read off the Dynkin
    diagram: 2 on the diagonal, -max(l_i, l_j) / l_j at an edge, l the
    squared lengths, and 0 elsewhere, so only O(r) entries are computed."""
    lengths, edges = dynkin_diagram(t)
    r = len(lengths)
    rows = [[0] * i + [2] + [0] * (r - 1 - i) for i in range(r)]
    for i, j in edges:
        big = max(lengths[i], lengths[j])
        rows[i][j], rows[j][i] = -(big // lengths[j]), -(big // lengths[i])
    return tuple(map(tuple, rows))

