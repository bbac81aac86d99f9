"""Finite reflection groups as exact matrix groups, and the super-Molien
series of their invariant bigraded algebras.

Two representations coexist:

* :class:`FiniteMatrixGroup` stores explicit rational matrices and a
  bucket table mapping characteristic polynomials to multiplicities.
  Suitable for groups up to a few thousand elements.

* :class:`RootPermutationAction` writes the simple reflections of a Weyl
  group as permutations of the root set (one byte per root index) and
  derives Steinberg's generators of the fixed subgroup W^sigma of a
  diagram automorphism sigma, one per sigma-orbit of simple nodes.
  :func:`close_permutations` closes them into W^sigma, so only W^sigma is
  ever enumerated; sigma = identity gives all of W.
  :func:`fixed_space_charpoly_buckets` reads characteristic polynomials
  of the action on the fixed subspace off power traces of the
  permutations.  :class:`WeylPermutationGroup` closes the simple
  reflections into all of W; with :func:`fixed_space_stabilizer_perms`
  and :func:`restricted_fixed_space_group` it is the full-enumeration
  reference the tests compare W^sigma against.

The super-Molien series of a group G acting on an n-dimensional space is

    P(s, t) = 1/|G| * sum_g det(1 + s g) / det(1 - t g),

the bigraded dimension series of the invariants of (exterior algebra) x
(polynomial algebra).  Both determinants depend only on charpoly(g), so
the sum is taken per bucket.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import (BigradedSeries, Matrix, Scalar, Vector, charpoly,
                    charpoly_from_power_traces, collapse_to_cohomological,
                    dets_from_charpoly, identity_matrix, mat_mul, mat_vec,
                    matrix, rank, rational_function_series, solve, vec_dot,
                    vec_scale, vec_sub)
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


class FiniteMatrixGroup:
    """Deduplicated set of exact matrices closed under product and inverse."""

    def __init__(self, dim: int, elements: Sequence[Matrix]):
        self.dim = dim
        self.elements = tuple(elements)
        if not self.elements:
            raise ValueError("a group needs at least the identity")
        self.charpoly_buckets = self._bucket()

    def _bucket(self) -> dict[CharPoly, int]:
        buckets: dict[CharPoly, int] = {}
        for m in self.elements:
            cp = charpoly(m)
            buckets[cp] = buckets.get(cp, 0) + 1
        return buckets

    def __len__(self):
        return len(self.elements)

    def __contains__(self, m: Matrix) -> bool:
        return m in set(self.elements)

    def __repr__(self):
        return f"FiniteMatrixGroup(dim={self.dim}, order={len(self)})"


def generate_group(generators: Sequence[Matrix],
                   cap: int = DEFAULT_ELEMENT_CAP) -> FiniteMatrixGroup:
    """Breadth-first closure of the generators under right multiplication.

    Matrices are deduplicated by their (normalized, hashable) entry tuples,
    so equality is exact.  Raises GroupTooLargeError past the cap.
    """
    if not generators:
        raise ValueError("need at least one generator")
    dim = len(generators[0])
    gens = []
    for g in generators:
        if len(g) != dim or any(len(row) != dim for row in g):
            raise ValueError("generators must be square matrices of equal size")
        gens.append(matrix(g))
    ident = identity_matrix(dim)
    seen = {ident}
    order = [ident]
    queue = deque([ident])
    while queue:
        w = queue.popleft()
        for g in gens:
            c = mat_mul(w, g)
            if c not in seen:
                if len(seen) >= cap:
                    raise GroupTooLargeError(f"group too large (cap {cap})")
                seen.add(c)
                order.append(c)
                queue.append(c)
    return FiniteMatrixGroup(dim, order)


def reflection_matrix(root: Vector) -> Matrix:
    """Matrix of x |-> x - 2<x,a>/<a,a> a in the ambient coordinates."""
    if all(c == 0 for c in root):
        raise ValueError("cannot reflect through the zero vector")
    n = len(root)
    den = vec_dot(root, root)
    rows = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        coeff = Fraction(2 * Fraction(root[i]), 1) / den
        rows.append(vec_sub(e, vec_scale(coeff, root)))
    # built row-wise from images of basis vectors: transpose to act as x -> Mx
    return tuple(zip(*rows))


def subspace_stabilizer(group: FiniteMatrixGroup, space: SubspaceBasis) -> FiniteMatrixGroup:
    """Subgroup of elements mapping span(space) onto itself.

    Membership of each image vector in the span is tested exactly; since
    elements are invertible, preserving the span is equivalent to mapping
    every basis vector into it.
    """
    if space.ambient_dim != group.dim:
        raise ValueError("subspace lives in a different ambient space")
    if space.dim == 0:
        return group
    base = matrix(zip(*space.basis_vectors))  # columns span the subspace
    kept = []
    for m in group.elements:
        if all(solve(base, mat_vec(m, b)) is not None for b in space.basis_vectors):
            kept.append(m)
    return FiniteMatrixGroup(group.dim, kept)


def restrict_to_subspace(group: FiniteMatrixGroup, space: SubspaceBasis) -> FiniteMatrixGroup:
    """Effective image of the action on span(space), in the given basis.

    Elements acting identically on the subspace collapse; passing to the
    image leaves the invariant theory of the action unchanged.
    """
    base = matrix(zip(*space.basis_vectors))
    seen = set()
    images = []
    for m in group.elements:
        cols = []
        for b in space.basis_vectors:
            x = solve(base, mat_vec(m, b))
            if x is None:
                raise ValueError("element does not preserve the subspace")
            cols.append(x)
        restricted = tuple(zip(*cols))
        if restricted not in seen:
            seen.add(restricted)
            images.append(restricted)
    return FiniteMatrixGroup(space.dim, images)


# ---------------------------------------------------------------------------
# super-Molien evaluation
# ---------------------------------------------------------------------------

def _expand_bucket(item: tuple[CharPoly, int], truncation: int) -> BigradedSeries:
    cp, mult = item
    num_s, den_t = dets_from_charpoly(cp)
    term = rational_function_series(num_s, den_t, truncation)
    return BigradedSeries(truncation,
                          {k: mult * c for k, c in term.coefficients.items()})


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
    for item in sorted(buckets.items()):
        for k, c in _expand_bucket(item, truncation).coefficients.items():
            total[k] = total.get(k, 0) + c
    averaged = {}
    for k, c in total.items():
        v = Fraction(c, order)
        if v.denominator != 1:
            raise ValueError("non-integer invariant dimension: input is not a group")
        averaged[k] = int(v)
    return BigradedSeries(truncation, averaged)


def super_molien(group: FiniteMatrixGroup, truncation: int) -> BigradedSeries:
    return super_molien_from_buckets(group.charpoly_buckets, len(group), truncation)


def cohomological_series(series: BigradedSeries) -> tuple[int, ...]:
    """Loop-group grading: an exterior generator paired with a polynomial
    generator of degree d sits in degree 2d - 1, i.e. substitute s -> u,
    t -> u^2 and read off the coefficients of u^n."""
    return collapse_to_cohomological(series)


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

    def root_permutation_of_matrix(self, m: Matrix) -> bytes:
        """Permutation induced by an ambient matrix that permutes the roots."""
        rs = self.root_system
        return bytes(rs.root_index[mat_vec(m, v)] for v in rs.roots)

    def lattice_matrix(self, perm: bytes) -> Matrix:
        """Element matrix over the simple-root basis (integer entries)."""
        rs = self.root_system
        cols = [rs.lattice_coords[perm[i]] for i in self.simple_indices]
        return tuple(zip(*cols))

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


class WeylPermutationGroup(RootPermutationAction):
    """All of the Weyl group, closed from the simple reflections.

    The pipeline enumerates only W^sigma; this full enumeration is the
    reference the tests check W^sigma and its buckets against.
    """

    def __init__(self, root_system: RootSystem, cap: int = DEFAULT_ELEMENT_CAP):
        super().__init__(root_system)
        rs = root_system
        if rs.weyl_order > cap:
            raise GroupTooLargeError(
                f"Weyl group of order {rs.weyl_order} exceeds the cap {cap}")
        self.elements = close_permutations(self.simple_reflections, cap)
        if len(self.elements) != rs.weyl_order:
            raise ValueError(f"enumerated {len(self.elements)} elements, "
                             f"expected {rs.weyl_order}")

    def __len__(self):
        return len(self.elements)

    def charpoly_buckets(self) -> dict[CharPoly, int]:
        """Characteristic polynomials of the reflection representation."""
        identity = tuple(range(self.root_system.cartan_type.rank))
        return fixed_space_charpoly_buckets(self, identity, self.elements)

    def to_matrix_group(self) -> FiniteMatrixGroup:
        """Materialize all elements as lattice-basis matrices (small groups)."""
        return FiniteMatrixGroup(self.root_system.cartan_type.rank,
                                 [self.lattice_matrix(w) for w in self.elements])


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


def fixed_space_stabilizer_perms(weyl: WeylPermutationGroup,
                                 simple_perm: tuple[int, ...]) -> tuple[bytes, ...]:
    """Elements preserving the fixed subspace of a diagram automorphism.

    The fixed space of the automorphism (a coordinate permutation over the
    simple-root basis) is exactly the vectors constant on its orbits, so an
    element w preserves it iff each image of an orbit-sum basis vector is
    again orbit-constant.
    """
    rs = weyl.root_system
    r = rs.cartan_type.rank
    coords = rs.lattice_coords
    sidx = weyl.simple_indices
    orbits = _perm_orbits(simple_perm)
    orbit_root_indices = [tuple(sidx[i] for i in orb) for orb in orbits]
    kept = []
    for w in weyl.elements:
        ok = True
        for members in orbit_root_indices:
            v = [0] * r
            for ridx in members:
                img = coords[w[ridx]]
                for j in range(r):
                    v[j] += img[j]
            if any(v[simple_perm[j]] != v[j] for j in range(r)):
                ok = False
                break
        if ok:
            kept.append(w)
    return tuple(kept)


def restricted_fixed_space_group(weyl: RootPermutationAction,
                                 simple_perm: tuple[int, ...],
                                 stab: Sequence[bytes]) -> FiniteMatrixGroup:
    """Image of the stabilizer on the fixed subspace, in the orbit-sum basis.

    Basis vector b_O = sum of the simple roots in orbit O; the image of b_O
    under a stabilizer element is orbit-constant, and its coefficient over
    b_O' is the common coordinate value on O'.  All entries are integers.
    """
    rs = weyl.root_system
    r = rs.cartan_type.rank
    coords = rs.lattice_coords
    sidx = weyl.simple_indices
    orbits = _perm_orbits(simple_perm)
    reps = [orb[0] for orb in orbits]
    orbit_root_indices = [tuple(sidx[i] for i in orb) for orb in orbits]
    seen = set()
    images = []
    for w in stab:
        cols = []
        for members in orbit_root_indices:
            v = [0] * r
            for ridx in members:
                img = coords[w[ridx]]
                for j in range(r):
                    v[j] += img[j]
            cols.append(tuple(v[rep] for rep in reps))
        m = tuple(zip(*cols))
        if m not in seen:
            seen.add(m)
            images.append(m)
    return FiniteMatrixGroup(len(orbits), images)


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
