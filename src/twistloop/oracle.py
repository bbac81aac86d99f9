"""Independent reference routes, kept out of the pipeline.

No pipeline module imports this one at load time.  ``--check``, the tests
and demo 05 compare the pipeline against: the classical ambient
realization (exact Gaussian elimination, :class:`SubspaceBasis`, the
Fraction root closure :func:`ambient_roots` under :func:`reflect`, the
ambient matrix of a diagram automorphism and its ambient
:func:`fixed_subspace`), where the pipeline works only in integer
coordinates over the simple roots; Berkowitz :func:`charpoly`; explicit
matrix groups (:class:`FiniteMatrixGroup`, :func:`super_molien`,
:func:`generate_group` of :func:`reflection_matrix` generators, the
ambient :func:`subspace_stabilizer` and :func:`restrict_to_subspace`);
the breadth-first closure :func:`close_permutations` of byte
permutations, which keeps every element; all of W
(:class:`WeylPermutationGroup`) with the full-enumeration fixed-subspace
stabilizer and its image; and
:func:`brute_force_invariant_dims`, invariant dimensions from explicit
monomial bases instead of the super-Molien average.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .exact import (BigradedSeries, Matrix, Scalar, Vector, identity_matrix,
                    mat_mul, mat_shape, mat_vec, matrix, normalize_scalar,
                    vec_add, vec_dot, vec_scale, vec_sub, vector)
from .rootsys import CartanType, RootSystem, simple_root_vectors
from .twist import DiagramAutomorphism
from .weyl import (DEFAULT_ELEMENT_CAP, CharPoly, GroupTooLargeError,
                   RootPermutationAction, _perm_orbits,
                   fixed_space_charpoly_buckets, super_molien_from_buckets)

ORACLE_MAX_DIM = 3
ORACLE_MAX_DEGREE = 12


# ---------------------------------------------------------------------------
# exact Gaussian elimination: rank, kernels, solving, inverses
# ---------------------------------------------------------------------------

def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    if not rows:
        return rows, []
    nrows, ncols = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(m: Matrix) -> int:
    rows = [[Fraction(x) for x in row] for row in m]
    _, pivots = _rref(rows)
    return len(pivots)


def kernel_basis(m: Matrix) -> tuple[Vector, ...]:
    """Deterministic basis of the right kernel {x : M x = 0}."""
    nrows, ncols = mat_shape(m)
    rows = [[Fraction(x) for x in row] for row in m]
    red, pivots = _rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(vector(v))
    return tuple(basis)


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One exact solution of A x = b (free variables set to 0), or None."""
    nrows, ncols = mat_shape(a)
    rows = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b, strict=True)]
    red, pivots = _rref(rows)
    if ncols in pivots:  # pivot in the augmented column: inconsistent
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return vector(x)


def invert(m: Matrix) -> Matrix:
    n = len(m)
    rows = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
            for i, row in enumerate(m)]
    red, pivots = _rref(rows)
    if pivots[:n] != list(range(n)):  # a pivot escaped into the identity block
        raise ValueError("matrix is singular")
    return matrix(row[n:] for row in red)


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
# the classical ambient realization
# ---------------------------------------------------------------------------

def reflect(x: Vector, root: Vector) -> Vector:
    """Reflection of x through the hyperplane orthogonal to root."""
    c = Fraction(2 * vec_dot(x, root), 1) / vec_dot(root, root)
    return vec_sub(x, vec_scale(c, root))


def ambient_roots(t: CartanType, limit: int = 100000) -> tuple[Vector, ...]:
    """All roots in the classical ambient coordinates: the closure of the
    simple roots under their reflections, in exact rationals."""
    simple = simple_root_vectors(t)
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for x in frontier:
            for a in simple:
                y = reflect(x, a)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
            if len(seen) > limit:
                raise ValueError("root closure did not terminate")
        frontier = nxt
    return tuple(sorted(seen))


def ambient_vector(t: CartanType, coords: Sequence[int]) -> Vector:
    """The ambient vector sum_i coords[i] alpha_i."""
    simple = simple_root_vectors(t)
    return vector(sum(c * a[k] for c, a in zip(coords, simple))
                  for k in range(len(simple[0])))


def automorphism_matrix(a: DiagramAutomorphism) -> Matrix:
    """Ambient linear extension of a diagram automorphism: the unique map
    sending alpha_j to alpha_{perm(j)} that fixes the orthogonal complement
    of the root span, except for type A flips."""
    t, perm = a.base.cartan_type, a.simple_perm
    simple = simple_root_vectors(t)
    n = len(simple[0])
    if perm == tuple(range(t.rank)):
        return identity_matrix(n)
    if t.family == "A":
        # e_i -> -e_{n-1-i}: restricts to alpha_i -> alpha_{r-1-i} on the
        # sum-zero hyperplane and has no fixed vectors outside it.
        return tuple(tuple(-1 if i == n - 1 - j else 0 for j in range(n))
                     for i in range(n))
    complement = kernel_basis(simple)
    source_cols = list(simple) + list(complement)
    target_cols = [simple[perm[j]] for j in range(t.rank)] + list(complement)
    source = matrix(zip(*source_cols))
    target = matrix(zip(*target_cols))
    return mat_mul(target, invert(source))


def fixed_subspace(a: DiagramAutomorphism) -> SubspaceBasis:
    """Basis of the automorphism-fixed part of the root span: the orbit
    sums of simple roots, as ambient vectors.  For type A this lands
    inside the sum-zero hyperplane automatically."""
    simple = simple_root_vectors(a.base.cartan_type)
    basis = []
    for orb in a.simple_orbits:
        v = simple[orb[0]]
        for i in orb[1:]:
            v = vec_add(v, simple[i])
        basis.append(v)
    return SubspaceBasis(len(simple[0]), tuple(basis))


# ---------------------------------------------------------------------------
# characteristic polynomials and explicit matrix groups
# ---------------------------------------------------------------------------


def charpoly(m: Matrix) -> tuple[Scalar, ...]:
    """Coefficients of det(lambda*I - M), ascending; cp[n] = 1.

    Uses the division-free Samuelson-Berkowitz recursion, so integer
    matrices stay in integer arithmetic throughout.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("charpoly requires a square matrix")
    if n == 0:
        return (1,)
    # poly holds descending coefficients of the leading principal block.
    poly: list[Scalar] = [1, -m[0][0]]
    for r in range(1, n):
        a = m[r][r]
        row = [m[r][j] for j in range(r)]
        col = [m[i][r] for i in range(r)]
        block = [m[i][:r] for i in range(r)]
        t: list[Scalar] = [1, -a]
        v = col
        for k in range(2, r + 2):
            t.append(-sum(x * y for x, y in zip(row, v)))
            if k < r + 1:
                v = [sum(block[i][j] * v[j] for j in range(r)) for i in range(r)]
        new = [0] * (r + 2)
        for j, pj in enumerate(poly):
            if pj:
                for i, tk in enumerate(t):
                    if i + j <= r + 1:
                        new[i + j] += tk * pj
        poly = new
    return tuple(normalize_scalar(c) for c in reversed(poly))


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


def super_molien(group: FiniteMatrixGroup, truncation: int) -> BigradedSeries:
    return super_molien_from_buckets(group.charpoly_buckets, len(group), truncation)


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


def close_permutations(generators: Sequence[bytes], cap: int) -> tuple[bytes, ...]:
    """Breadth-first closure of byte permutations under right multiplication,
    in discovery order, every element kept in a tuple and a set.  Raises
    GroupTooLargeError past the cap.  The pipeline streams W^sigma from
    coset representatives instead (:func:`twistloop.weyl.wsigma_elements`)."""
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

    def lattice_matrix(self, perm: bytes) -> Matrix:
        """Element matrix over the simple-root basis (integer entries)."""
        rs = self.root_system
        cols = [rs.roots[perm[i]] for i in self.simple_indices]
        return tuple(zip(*cols))

    def to_matrix_group(self) -> FiniteMatrixGroup:
        """Materialize all elements as lattice-basis matrices (small groups)."""
        return FiniteMatrixGroup(self.root_system.cartan_type.rank,
                                 [self.lattice_matrix(w) for w in self.elements])


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
    coords = rs.roots
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


def restricted_fixed_space_group(action: RootPermutationAction,
                                 simple_perm: tuple[int, ...],
                                 stab: Sequence[bytes]) -> FiniteMatrixGroup:
    """Image of the stabilizer on the fixed subspace, in the orbit-sum
    basis; elements acting alike there collapse to one matrix."""
    images = dict.fromkeys(action.fixed_space_matrices(simple_perm, stab))
    return FiniteMatrixGroup(len(_perm_orbits(simple_perm)), tuple(images))


# ---------------------------------------------------------------------------
# brute-force invariant dimensions
# ---------------------------------------------------------------------------

def _det(m: list[list]) -> Scalar:
    # cofactor expansion; only ever called on blocks of size <= ORACLE_MAX_DIM
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def _exterior_action(g: Matrix, a: int) -> list[list[Scalar]]:
    n = len(g)
    subsets = list(combinations(range(n), a))
    out = []
    for t in subsets:
        row = []
        for s in subsets:
            block = [[g[i][j] for j in s] for i in t]
            row.append(_det(block))
        out.append(row)
    return out


def _symmetric_action(g: Matrix, b: int) -> list[list[Scalar]]:
    n = len(g)
    monomials = _exponent_tuples(n, b)
    index = {m: i for i, m in enumerate(monomials)}
    out = [[0] * len(monomials) for _ in monomials]
    for col, expo in enumerate(monomials):
        # product over variables of (image linear form)^multiplicity
        poly: dict[tuple[int, ...], Scalar] = {(0,) * n: 1}
        for var, mult in enumerate(expo):
            for _ in range(mult):
                nxt: dict[tuple[int, ...], Scalar] = {}
                for mono, coeff in poly.items():
                    for i in range(n):
                        c = g[i][var]
                        if c == 0:
                            continue
                        key = tuple(e + (1 if k == i else 0)
                                    for k, e in enumerate(mono))
                        nxt[key] = nxt.get(key, 0) + coeff * c
                poly = nxt
        for mono, coeff in poly.items():
            out[index[mono]][col] = coeff
    return out


def _exponent_tuples(n: int, total: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in _exponent_tuples(n - 1, total - first):
            out.append((first,) + rest)
    return out


def _joint_fixed_dimension(mats: Sequence[list[list[Scalar]]]) -> int:
    """Dimension of the common fixed space, by iterated exact kernels of
    the (g - I) blocks."""
    dim = len(mats[0])
    basis_cols = [tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]
    for g in mats:
        if not basis_cols:
            return 0
        rows = []
        for i in range(dim):
            rows.append(tuple(
                sum((g[i][k] - (1 if i == k else 0)) * col[k] for k in range(dim))
                for col in basis_cols))
        ker = kernel_basis(tuple(rows))
        basis_cols = [tuple(sum(col[k] * kv[idx] for idx, col in enumerate(basis_cols))
                            for k in range(dim))
                      for kv in ker]
    return len(basis_cols)


def brute_force_invariant_dims(group: FiniteMatrixGroup,
                               max_total_degree: int) -> BigradedSeries:
    """Invariant dimensions by explicit monomial bases, independent of the
    super-Molien route: for each bidegree (a, b) with a + 2b within range,
    the induced action on (exterior degree a) x (polynomial degree b) is
    assembled elementwise and the joint fixed subspace is computed by
    exact kernel elimination."""
    if group.dim > ORACLE_MAX_DIM:
        raise ValueError(f"oracle guard: dimension {group.dim} exceeds {ORACLE_MAX_DIM}")
    if max_total_degree > ORACLE_MAX_DEGREE:
        raise ValueError(f"oracle guard: degree {max_total_degree} exceeds "
                         f"{ORACLE_MAX_DEGREE}")
    n = group.dim
    dims: dict[tuple[int, int], int] = {}
    for a in range(0, min(n, max_total_degree) + 1):
        ext = [_exterior_action(g, a) for g in group.elements]
        for b in range((max_total_degree - a) // 2 + 1):
            sym = [_symmetric_action(g, b) for g in group.elements]
            tensored = []
            for e, s in zip(ext, sym):
                de, ds = len(e), len(s)
                t = [[e[i][j] * s[k][l] for j in range(de) for l in range(ds)]
                     for i in range(de) for k in range(ds)]
                tensored.append(t)
            dims[(a, b)] = _joint_fixed_dimension(tensored)
    return BigradedSeries(max_total_degree, dims)
