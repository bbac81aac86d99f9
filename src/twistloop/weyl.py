"""The Weyl-group route of the pipeline: W^sigma as permutations of the
root set, its characteristic-polynomial buckets on the fixed subspace,
and the super-Molien series averaged over those buckets.

:class:`RootPermutationAction` writes the simple reflections of a Weyl
group as permutations of the root set (one byte per root index) and
derives Steinberg's generators of the fixed subgroup W^sigma of a diagram
automorphism sigma, one per sigma-orbit of simple nodes.
:func:`wsigma_elements` streams W^sigma as products of coset
representatives along the chain of subgroups those generators span, so
only W^sigma is ever enumerated (sigma = identity gives all of W) and no
element is stored.  :func:`fixed_space_charpoly_buckets` reads the
characteristic polynomials of the action on the fixed subspace off power
traces, walking the orbits of the simple roots under each element.

The super-Molien series of a group G acting on an n-dimensional space is

    P(s, t) = 1/|G| * sum_g det(1 + s g) / det(1 - t g),

the bigraded dimension series of the invariants of (exterior algebra) x
(polynomial algebra).  Both determinants depend only on charpoly(g), so
the sum is taken per bucket (:func:`super_molien_from_buckets`).

The independent references these routines are checked against live in
:mod:`twistloop.oracle`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .exact import (BigradedSeries, Matrix, Scalar, charpoly_from_power_traces,
                    dets_from_charpoly, rational_function_series)
from .rootsys import RootSystem, simple_reflection

DEFAULT_ELEMENT_CAP = 10**7
MAX_ROOTS = 255  # one byte per root index

CharPoly = tuple[Scalar, ...]


class GroupTooLargeError(RuntimeError):
    """Raised when a closure would exceed the configured element cap."""


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
    element over the simple-root basis has column j equal to the image of
    simple root j, a root in its own coordinates.
    """

    def __init__(self, root_system: RootSystem):
        rs = root_system
        if len(rs.roots) > MAX_ROOTS:
            raise GroupTooLargeError("root set too large for byte-permutation encoding")
        self.root_system = rs
        self.simple_indices = tuple(rs.root_index[a] for a in rs.simple_roots)
        self.simple_reflections = tuple(
            bytes(rs.root_index[simple_reflection(c, i, rs.cartan_matrix)]
                  for c in rs.roots)
            for i in range(rs.cartan_type.rank))

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
                             perms: Iterable[bytes]) -> tuple[Matrix, ...]:
        """Matrices of elements of W^sigma on the fixed subspace, in the
        orbit-sum basis b_O = sum of the simple roots in orbit O.  The image
        of b_O is orbit-constant; its coefficient over b_O' is the
        coordinate at the first node of O'."""
        coords = self.root_system.roots
        orbits = _perm_orbits(simple_perm)
        reps = [orb[0] for orb in orbits]
        out = []
        for w in perms:
            cols = [tuple(sum(coords[w[self.simple_indices[i]]][rep] for i in orb)
                          for rep in reps)
                    for orb in orbits]
            out.append(tuple(zip(*cols)))
        return tuple(out)


def wsigma_elements(action: RootPermutationAction, simple_perm: tuple[int, ...],
                    generators: Sequence[bytes], order: int,
                    cap: int) -> Iterator[bytes]:
    """Stream W^sigma, each element once, with no element stored.

    W_k is the subgroup generated by the first k Steinberg generators
    w_O, taken in sigma-orbit order.  Every element of W^sigma = W_m is a
    unique product x_1 x_2 ... x_m of right coset representatives x_k of
    W_{k-1} in W_k (Humphreys, Reflection Groups and Coxeter Groups,
    1.10), so walking the tree of these products visits W^sigma exactly
    once, with one composition per tree node.  Only the representatives
    are kept.

    Raises GroupTooLargeError when a coset search passes the cap, and
    ValueError before the walk when the coset counts do not multiply to
    order, the expected |W^sigma|: then the generators are not Steinberg's.
    """
    transversals = _coset_transversals(action, simple_perm, generators, cap)
    if math.prod(map(len, transversals)) != order:
        raise ValueError(f"coset counts {[len(x) for x in transversals]} do not "
                         f"multiply to the group order {order}")
    return _walk_products(transversals)


def _coset_transversals(action: RootPermutationAction, simple_perm: tuple[int, ...],
                        generators: Sequence[bytes],
                        cap: int) -> tuple[tuple[bytes, ...], ...]:
    """Right coset representatives of W_{k-1} in W_k for k = 1..m, each
    found by a breadth-first search over the cosets.

    A coset W_{k-1} x is keyed by the coordinate at the first node of
    orbit O_k of x(alpha_i), over the simple roots alpha_i.  A simple
    reflection s_j changes only coordinate j, and W_{k-1} is made of s_j
    with j outside O_k, so the key is constant on the coset.  Two elements
    with the same key differ by an element of W^sigma fixing that
    coordinate functional, hence (it commutes with sigma) every
    coordinate functional of O_k; such an element lies in the parabolic
    subgroup without O_k, and within W_k that is W_{k-1}.
    """
    coords = action.root_system.roots
    ident = bytes(range(len(coords)))
    transversals = []
    for k, orb in enumerate(_perm_orbits(simple_perm)[:len(generators)]):
        column = tuple(c[orb[0]] for c in coords)
        reps = [ident]
        seen = {tuple(column[s] for s in action.simple_indices)}
        for x in reps:  # reps grows while it is read: a breadth-first search
            for g in generators[:k + 1]:
                y = bytes(map(x.__getitem__, g))
                key = tuple(column[y[s]] for s in action.simple_indices)
                if key not in seen:
                    if len(reps) >= cap:
                        raise GroupTooLargeError(f"group too large (cap {cap})")
                    seen.add(key)
                    reps.append(y)
        transversals.append(tuple(reps))
    return tuple(transversals)


def _walk_products(transversals: Sequence[Sequence[bytes]]) -> Iterator[bytes]:
    """Every product x_1 x_2 ... x_m with x_k in transversals[k-1].

    A product p x is x.translate(p) once p is padded to a 256-byte table
    (the identity past the roots); the inner prefixes are kept padded, and
    a leaf comes out as long as its last factor.  Consecutive choices of
    the inner factors share their leading prefixes, so each prefix is
    composed once.
    """
    *inner, last = transversals
    tail = bytes(range(len(last[0]), 256))
    inner = [[x + tail for x in xs] for xs in inner]
    prefixes = [bytes(range(256))]  # prefixes[j] = x_1 ... x_j
    previous: tuple[bytes, ...] = ()
    for choice in itertools.product(*inner):
        j = 0
        while j < len(previous) and choice[j] is previous[j]:
            j += 1
        del prefixes[j + 1:]
        for x in choice[j:]:
            prefixes.append(x.translate(prefixes[-1]))
        p = prefixes[-1]
        for x in last:
            yield x.translate(p)
        previous = choice


def fixed_space_charpoly_buckets(action: RootPermutationAction,
                                 simple_perm: tuple[int, ...],
                                 elements: Iterable[bytes]) -> dict[CharPoly, int]:
    """Characteristic polynomials of elements of W^sigma acting on the fixed
    subspace, with multiplicities, recovered from power traces.

    In the orbit-sum basis the diagonal entry of w at orbit O is the
    coordinate of w(b_O) at the first node of O, so

        tr(w^k | fixed subspace) = sum_O sum_{i in O} [w^k(alpha_i)]_{rep(O)}.

    w^k(alpha_i) is reached by stepping along the orbit of alpha_i under w,
    one lookup per power; no product of elements is formed, and elements
    may come from a stream.  For sigma = identity every orbit is one node
    and this is the trace of the reflection representation.  Elements are
    counted as given: the restriction of W^sigma to the fixed subspace is
    faithful, because that subspace holds the regular vector rho.
    """
    coords = action.root_system.roots
    orbits = _perm_orbits(simple_perm)
    dim = len(orbits)
    powers = range(dim)
    pairs = []  # (index of alpha_i, column of coordinates at rep(O)), i in O
    for orb in orbits:
        column = tuple(c[orb[0]] for c in coords)
        pairs.extend((action.simple_indices[i], column) for i in orb)
    trace_counts: dict[tuple[int, ...], int] = {}
    for w in elements:
        traces = [0] * dim
        for r, column in pairs:
            for k in powers:
                r = w[r]
                traces[k] += column[r]
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
