"""The Weyl-group route of the pipeline: W^sigma as permutations of the
root set, its characteristic-polynomial buckets on the fixed subspace,
and the super-Molien series averaged over those buckets.

:class:`RootPermutationAction` writes the simple reflections of a Weyl
group as permutations of the root set (one byte per root index) and
derives Steinberg's generators of the fixed subgroup W^sigma of a diagram
automorphism sigma, one per sigma-orbit of simple nodes.
:func:`close_permutations` closes them into W^sigma, so only W^sigma is
ever enumerated; sigma = identity gives all of W.
:func:`fixed_space_charpoly_buckets` reads the characteristic polynomials
of the action on the fixed subspace off power traces of the permutations.

The super-Molien series of a group G acting on an n-dimensional space is

    P(s, t) = 1/|G| * sum_g det(1 + s g) / det(1 - t g),

the bigraded dimension series of the invariants of (exterior algebra) x
(polynomial algebra).  Both determinants depend only on charpoly(g), so
the sum is taken per bucket (:func:`super_molien_from_buckets`).

The independent references these routines are checked against live in
:mod:`twistloop.oracle`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import (BigradedSeries, Matrix, Scalar, Vector,
                    charpoly_from_power_traces, dets_from_charpoly, rank,
                    rational_function_series)
from .rootsys import RootSystem

DEFAULT_ELEMENT_CAP = 10**7

CharPoly = tuple[Scalar, ...]


class GroupTooLargeError(RuntimeError):
    """Raised when a closure would exceed the configured element cap."""


@dataclass(frozen=True)
class SubspaceBasis:
    """Linearly independent spanning set of a rational subspace."""

    ambient_dim: int
    basis_vectors: tuple[Vector, ...]

    def __post_init__(self):
        for v in self.basis_vectors:
            if len(v) != self.ambient_dim:
                raise ValueError("basis vector of wrong length")
        if self.basis_vectors and rank(self.basis_vectors) != len(self.basis_vectors):
            raise ValueError("basis vectors are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis_vectors)


# ---------------------------------------------------------------------------
# super-Molien evaluation
# ---------------------------------------------------------------------------

def super_molien_from_buckets(buckets: dict[CharPoly, int], order: int,
                              truncation: int) -> BigradedSeries:
    """Average the per-charpoly expansions.  Buckets are processed in sorted
    key order and integer sums commute exactly, so the result does not
    depend on the order the buckets were filled in."""
    if truncation < 0:
        raise ValueError("truncation must be non-negative")
    if order <= 0:
        raise ValueError("empty group")
    total: dict[tuple[int, int], Scalar] = {}
    for cp, mult in sorted(buckets.items()):
        num_s, den_t = dets_from_charpoly(cp)
        term = rational_function_series(num_s, den_t, truncation)
        for k, c in term.coefficients.items():
            total[k] = total.get(k, 0) + mult * c
    averaged = {}
    for k, c in total.items():
        v = Fraction(c, order)
        if v.denominator != 1:
            raise ValueError("non-integer invariant dimension: input is not a group")
        averaged[k] = int(v)
    return BigradedSeries(truncation, averaged)


# ---------------------------------------------------------------------------
# permutation-backed Weyl group enumeration
# ---------------------------------------------------------------------------

class RootPermutationAction:
    """The simple reflections of a Weyl group as permutations of the root set.

    Each element is a bytes object p with p[i] = image index of root i, and
    products compose right to left: (w g)[i] = w[g[i]].  The matrix of an
    element over the simple-root basis has column j equal to the lattice
    coordinates of the image of simple root j.
    """

    def __init__(self, root_system: RootSystem):
        rs = root_system
        if len(rs.roots) > 255:
            raise GroupTooLargeError("root set too large for byte-permutation encoding")
        self.root_system = rs
        self.simple_indices = tuple(rs.root_index[a] for a in rs.simple_roots)
        self._lattice_index = {c: i for i, c in enumerate(rs.lattice_coords)}
        self.simple_reflections = tuple(self._root_permutation_of_reflection(i)
                                        for i in range(rs.cartan_type.rank))

    def _root_permutation_of_reflection(self, i: int) -> bytes:
        rs = self.root_system
        cm = rs.cartan_matrix
        images = []
        for lc in rs.lattice_coords:
            coeff = sum(lc[j] * cm[j][i] for j in range(len(lc)))
            new = list(lc)
            new[i] -= coeff
            images.append(self._lattice_index[tuple(new)])
        return bytes(images)

    def steinberg_generators(self, simple_perm: tuple[int, ...]) -> tuple[bytes, ...]:
        """Generators of W^sigma, the elements commuting with the diagram
        automorphism sigma that permutes the simple nodes by simple_perm.

        By Steinberg (Endomorphisms of linear algebraic groups, 1968),
        W^sigma is generated by the longest elements w_O of the parabolic
        subgroups W_O, one for each sigma-orbit O of simple nodes.  w_O is
        reached from the identity by right-multiplying with a simple
        reflection s_i, i in O, while w(alpha_i) is positive: each step
        lengthens w, and the walk stops once every simple root of O is
        sent negative.  For sigma = identity these are the simple
        reflections, in node order.
        """
        positive = self.root_system.positive_mask
        steps = len(self.root_system.roots) // 2  # no element is longer
        generators = []
        for orb in _perm_orbits(simple_perm):
            w = bytes(range(len(positive)))
            for _ in range(steps + 1):
                i = next((i for i in orb if positive[w[self.simple_indices[i]]]), None)
                if i is None:
                    break
                w = bytes(map(w.__getitem__, self.simple_reflections[i]))
            else:
                raise ValueError("parabolic longest element longer than the root count allows")
            generators.append(w)
        return tuple(generators)

    def fixed_space_matrices(self, simple_perm: tuple[int, ...],
                             perms: Sequence[bytes]) -> tuple[Matrix, ...]:
        """Matrices of elements of W^sigma on the fixed subspace, in the
        orbit-sum basis b_O = sum of the simple roots in orbit O.  The image
        of b_O is orbit-constant; its coefficient over b_O' is the
        coordinate at the first node of O'."""
        coords = self.root_system.lattice_coords
        orbits = _perm_orbits(simple_perm)
        reps = [orb[0] for orb in orbits]
        out = []
        for w in perms:
            cols = [tuple(sum(coords[w[self.simple_indices[i]]][rep] for i in orb)
                          for rep in reps)
                    for orb in orbits]
            out.append(tuple(zip(*cols)))
        return tuple(out)


def close_permutations(generators: Sequence[bytes], cap: int) -> tuple[bytes, ...]:
    """Breadth-first closure of byte permutations under right multiplication,
    in discovery order.  Raises GroupTooLargeError past the cap."""
    n = len(generators[0])
    ident = bytes(range(n))
    seen = {ident}
    order = [ident]
    queue = deque([ident])
    while queue:
        w = queue.popleft()
        for g in generators:
            c = bytes(map(w.__getitem__, g))
            if c not in seen:
                if len(seen) >= cap:
                    raise GroupTooLargeError(f"group too large (cap {cap})")
                seen.add(c)
                order.append(c)
                queue.append(c)
    return tuple(order)


def fixed_space_charpoly_buckets(action: RootPermutationAction,
                                 simple_perm: tuple[int, ...],
                                 elements: Sequence[bytes]) -> dict[CharPoly, int]:
    """Characteristic polynomials of elements of W^sigma acting on the fixed
    subspace, with multiplicities, recovered from power traces.

    In the orbit-sum basis the diagonal entry of w at orbit O is the
    coordinate of w(b_O) at the first node of O, so

        tr(w^k | fixed subspace) = sum_O sum_{i in O} [w^k(alpha_i)]_{rep(O)}.

    For sigma = identity every orbit is one node and this is the trace of
    the reflection representation.  Elements are counted as given: the
    restriction of W^sigma to the fixed subspace is faithful, because that
    subspace holds the regular vector rho.
    """
    coords = action.root_system.lattice_coords
    orbits = _perm_orbits(simple_perm)
    dim = len(orbits)
    pairs = tuple((action.simple_indices[i], orb[0]) for orb in orbits for i in orb)
    trace_counts: dict[tuple[int, ...], int] = {}
    for w in elements:
        p = w
        traces = [sum(coords[p[ri]][j] for ri, j in pairs)]
        for _ in range(dim - 1):
            p = bytes(map(w.__getitem__, p))
            traces.append(sum(coords[p[ri]][j] for ri, j in pairs))
        key = tuple(traces)
        trace_counts[key] = trace_counts.get(key, 0) + 1
    buckets: dict[CharPoly, int] = {}
    for traces, count in sorted(trace_counts.items()):
        cp = charpoly_from_power_traces(traces, dim)
        buckets[cp] = buckets.get(cp, 0) + count
    return buckets


def _perm_orbits(perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    seen = set()
    orbits = []
    for start in range(len(perm)):
        if start in seen:
            continue
        orb = [start]
        seen.add(start)
        j = perm[start]
        while j != start:
            orb.append(j)
            seen.add(j)
            j = perm[j]
        orbits.append(tuple(orb))
    return tuple(orbits)
