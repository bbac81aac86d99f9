"""Independent reference routes, kept out of the pipeline.

No pipeline module imports this one at load time.  ``--check``, the tests
and demo 05 compare the pipeline against: the classical ambient
realization of the simple roots (:func:`simple_root_vectors`, A_r in the
sum-zero hyperplane of (r+1)-space, B/C/D in signed coordinates of
r-space, G_2 in the sum-zero plane of 3-space, F_4 and E_6/E_7/E_8 in
their half-integer realizations) and its Gram matrix
(:func:`ambient_gram`), where the pipeline reads an integer Gram matrix
off the Dynkin diagram; the simple reflection with its pairing summed
from the Cartan matrix (:func:`simple_reflection`), where the root
closure carries each root's pairings; exact rational vectors and matrices
(:func:`vector`, :func:`matrix`, ``vec_*``, :func:`mat_vec`), exact
Gaussian elimination, :class:`SubspaceBasis`, the Fraction root closure
:func:`ambient_roots` under :func:`reflect`, the ambient matrix of a
diagram automorphism and its ambient :func:`fixed_subspace`, where the
pipeline works only in integer coordinates over the simple roots; the
projection of the roots as an average over sigma's powers over the orbit
sums of simple roots (:func:`orbit_sum_projection`,
:func:`orbit_sum_gram`), the Gram matrix of the projected simple roots
in Fractions (:func:`projected_gram`) and a classifier of the folded set
from scratch (:func:`classify_folded_roots`), where the pipeline sums
orbit coordinates over the projected simple roots, scales their Gram
matrix to integers and compares with the expected type's roots;
Berkowitz :func:`charpoly`; explicit matrix groups
(:class:`FiniteMatrixGroup`, :func:`super_molien`,
:func:`generate_group` of :func:`reflection_matrix` generators, the
ambient :func:`subspace_stabilizer` and :func:`restrict_to_subspace`);
the simple reflections as byte permutations of the roots and
Steinberg's generators of W^sigma walked over them
(:class:`RootPermutationAction`), where the pipeline walks each
generator on its images of the simple roots and keeps one row of it;
the breadth-first closure :func:`close_permutations` of byte
permutations, which keeps every element; all of W
(:class:`WeylPermutationGroup`) with the full-enumeration fixed-subspace
stabilizer and its image, the dense matrices of elements on the fixed
subspace (:func:`fixed_space_matrices`), where the pipeline keeps one
row of each generator; W^sigma of the A_n and D_n flips from the
classical (signed) permutations (:func:`classical_wsigma_perms`); the
element-by-element route to the invariant series, where the pipeline
certifies the invariant degrees instead: coset representatives along
the chain of subgroups the Steinberg generators span, found by a
breadth-first search over byte permutations of the roots
(:func:`wsigma_transversals`, where the pipeline counts each coset index
as the size of an orbit of functionals), the walk of W^sigma over them
(:func:`wsigma_elements`), its
characteristic-polynomial buckets on the fixed subspace from power
traces (:func:`fixed_space_charpoly_buckets`, by Newton's identities in
:func:`charpoly_from_power_traces`), and the super-Molien
average over them (:func:`super_molien_from_buckets`, with
:func:`dets_from_charpoly` and the dense series algebra
:func:`rational_function_series`, :func:`poly_inverse_series`,
:func:`poly_mul_trunc`) and its collapse to one grading
(:func:`collapse_to_cohomological`), where the pipeline expands the
single series over the degrees; and :func:`brute_force_invariant_dims`,
invariant dimensions from explicit monomial bases instead of the
super-Molien average; and :func:`recognize_closed_form`, which compares a
series coefficient by coefficient with the product over a degree table,
where the pipeline compares the certified degrees with the table.

The super-Molien series of a group G acting on an n-dimensional space is

    P(s, t) = 1/|G| * sum_g det(1 + s g) / det(1 - t g),

the bigraded dimension series of the invariants of (exterior algebra) x
(polynomial algebra).  Both determinants depend only on charpoly(g), so
the sum is taken per bucket.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import combinations

from .exact import (BigradedSeries, Record, mat_mul, normalize_scalar,
                    product_over_degrees)
from .report import ClosedForm
from .rootsys import CartanType, RootSystem, build_root_system, cartan_from_gram
from .twist import DiagramAutomorphism, _match_cartan
from .weyl import DEFAULT_ELEMENT_CAP, GroupTooLargeError, _perm_orbits

ORACLE_MAX_DIM = 3
ORACLE_MAX_DEGREE = 12
MAX_BYTE_ROOTS = 255  # one byte per root index

Scalar = int | Fraction
Vector = tuple[Scalar, ...]
Matrix = tuple[tuple[Scalar, ...], ...]
CharPoly = tuple[Scalar, ...]


# ---------------------------------------------------------------------------
# exact rational vectors and matrices
# ---------------------------------------------------------------------------

def vector(entries: Iterable[Scalar]) -> Vector:
    return tuple(normalize_scalar(Fraction(e) if not isinstance(e, (int, Fraction)) else e)
                 for e in entries)


def matrix(rows: Iterable[Iterable[Scalar]]) -> Matrix:
    return tuple(vector(r) for r in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def vec_add(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y, strict=True))


def vec_sub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y, strict=True))


def vec_scale(c: Scalar, x: Vector) -> Vector:
    return tuple(normalize_scalar(c * a) for a in x)


def vec_dot(x: Vector, y: Vector) -> Scalar:
    return normalize_scalar(sum(a * b for a, b in zip(x, y, strict=True)))


def mat_shape(m: Matrix) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    rows, cols = mat_shape(a)
    if cols != len(v):
        raise ValueError(f"dimension mismatch: {rows}x{cols} times vector of length {len(v)}")
    return tuple(normalize_scalar(sum(x * y for x, y in zip(row, v))) for row in a)


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


class SubspaceBasis(Record):
    """Linearly independent spanning set of a rational subspace."""

    __slots__ = ("ambient_dim", "basis_vectors")
    ambient_dim: int
    basis_vectors: tuple[Vector, ...]

    def _check(self):
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

def _unit(n: int, i: int) -> Vector:
    return tuple(1 if j == i else 0 for j in range(n))


def simple_root_vectors(t: CartanType) -> tuple[Vector, ...]:
    """Simple roots in the classical ambient coordinates, in the standard
    chain ordering (for D, the fork is the last two; for E, node 2 is the
    branch vertex attached to node 4), the node order of
    :func:`twistloop.rootsys.dynkin_diagram`."""
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


def simple_reflection(c: Sequence[int], i: int,
                      cartan: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """s_i(c) = c - <c, alpha_i^vee> e_i over the simple base, with the
    pairing summed from the Cartan matrix, <alpha_j, alpha_i^vee> = A_ji:
    the reference for the root closure, which carries each root's pairings
    instead."""
    k = sum(cj * row[i] for cj, row in zip(c, cartan))
    out = list(c)
    out[i] -= k
    return tuple(out)


def ambient_gram(t: CartanType) -> Matrix:
    """Inner products of the simple roots in the classical realization: the
    diagram's integer Gram matrix up to a positive scale (1/2 for B and F)."""
    simple = simple_root_vectors(t)
    return tuple(tuple(vec_dot(a, b) for b in simple) for a in simple)

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


def orbit_sum_projection(a: DiagramAutomorphism) -> tuple[tuple[Vector, int], ...]:
    """Averages of the roots over the automorphism's powers, written in the
    orbit-sum basis b_O = sum_{i in O} alpha_i of the fixed subspace;
    deduplicated, multiplicities retained.  Coordinate O is the pipeline's
    (:func:`twistloop.twist.project_roots`) divided by |O|."""
    rs = a.base
    r = rs.cartan_type.rank
    reps = [orb[0] for orb in a.simple_orbits]
    counts: dict[Vector, int] = {}
    for idx in range(len(rs.roots)):
        avg = [0] * r
        j = idx
        for _ in range(a.order):
            for i, c in enumerate(rs.roots[j]):
                avg[i] += c
            j = a.root_perm[j]
        coords = vector(Fraction(avg[rep], a.order) for rep in reps)
        counts[coords] = counts.get(coords, 0) + 1
    return tuple(sorted(counts.items()))


def orbit_sum_gram(a: DiagramAutomorphism) -> Matrix:
    """Gram matrix of the orbit sums in the ambient realization:
    (b_O, b_O') is the sum of (alpha_i, alpha_j) over i in O and j in O'."""
    g = ambient_gram(a.base.cartan_type)
    orbits = a.simple_orbits
    return tuple(tuple(normalize_scalar(sum(g[i][j] for i in o for j in p))
                       for p in orbits) for o in orbits)


def projected_gram(a: DiagramAutomorphism) -> Matrix:
    """Gram matrix of the projected simple roots in the ambient
    realization, in Fractions: (beta_O, beta_O') is the sum of
    (alpha_i, alpha_j) over i in O and j in O', divided by |O||O'|.  The
    pipeline's :func:`twistloop.twist.folded_gram` is an integer multiple
    of the diagram's version of it."""
    g = ambient_gram(a.base.cartan_type)
    orbits = a.simple_orbits
    return tuple(tuple(normalize_scalar(Fraction(sum(g[i][j] for i in o for j in p),
                                                 len(o) * len(p)))
                       for p in orbits) for o in orbits)


def classify_folded_roots(roots: Sequence[Vector], gram: Matrix,
                          expected: CartanType) -> None:
    """Raise ValueError unless roots, vectors under the inner product gram,
    form a root system of the expected type: the set is symmetric, its
    positive elements that are no sum of two are a base whose Cartan
    matrix is the expected one in some order, and the expected type's
    roots mapped through that ordered base are exactly the set."""
    positives = [v for v in roots if _lex_positive(v)]
    if 2 * len(positives) != len(roots):
        raise ValueError("projected root set is not symmetric")
    sums = {vec_add(p, q) for p in positives for q in positives}
    simple = [p for p in positives if p not in sums]
    if len(simple) != expected.rank:
        raise ValueError(f"found {len(simple)} simple roots, expected rank "
                         f"{expected.rank} for {expected}")
    cand = cartan_from_gram([[vec_dot(x, mat_vec(gram, y)) for y in simple]
                             for x in simple])
    model = build_root_system(expected)
    assignment = _match_cartan(cand, model.cartan_matrix)
    if assignment is None:
        raise ValueError(f"folded Cartan matrix does not match {expected}")
    base = [simple[k] for k in assignment]
    images = {vector(sum(c * b[m] for c, b in zip(root, base))
                     for m in range(len(gram)))
              for root in model.roots}
    if images != set(roots):
        raise ValueError(f"folded set is not the root system of {expected}")


def _lex_positive(v: Vector) -> bool:
    for c in v:
        if c != 0:
            return c > 0
    return False


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


def charpoly_from_power_traces(traces: Sequence[int], n: int) -> tuple[int, ...]:
    """Recover the (monic, ascending) characteristic polynomial of an n x n
    integer matrix from the traces of its first n powers, via Newton's
    identities k e_k = sum_i (-1)^(i-1) e_(k-i) p_i.  The e_k of an integer
    matrix are integers, so each division by k is exact; a remainder raises
    ValueError."""
    if len(traces) < n:
        raise ValueError("need traces of powers 1..n")
    e = [1]
    for k in range(1, n + 1):
        acc = sum((-1) ** (i - 1) * e[k - i] * traces[i - 1] for i in range(1, k + 1))
        ek, rest = divmod(acc, k)
        if rest:
            raise ValueError(f"power traces {list(traces[:n])} are not those of an "
                             f"integer matrix: e_{k} = {acc}/{k}")
        e.append(ek)
    return tuple((-1) ** k * e[k] for k in range(n, -1, -1))


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


class RootPermutationAction:
    """The simple reflections of a Weyl group as permutations of the root set.

    Each element is a bytes object p with p[i] = image index of root i, and
    products compose right to left: (w g)[i] = w[g[i]].  The matrix of an
    element over the simple-root basis has column j equal to the image of
    simple root j, a root in its own coordinates.  The pipeline forms no
    permutation: it walks Steinberg's generators on their columns alone
    (:func:`twistloop.weyl.steinberg_rows`).
    """

    def __init__(self, root_system: RootSystem):
        rs = root_system
        if len(rs.roots) > MAX_BYTE_ROOTS:
            raise GroupTooLargeError("root set too large for byte-permutation encoding")
        self.root_system = rs
        self.simple_indices = tuple(rs.root_index[a] for a in rs.simple_roots)
        index = rs.root_index
        self.simple_reflections = tuple(
            bytes(index[images[i]] for images in rs.reflections)
            for i in range(rs.cartan_type.rank))

    def steinberg_generators(self, simple_perm: tuple[int, ...]) -> tuple[bytes, ...]:
        """Generators of W^sigma, the elements commuting with the diagram
        automorphism sigma that permutes the simple nodes by simple_perm:
        the longest elements w_O of the parabolic subgroups W_O, one for
        each sigma-orbit O of simple nodes, reached by the walk of
        :func:`twistloop.weyl.steinberg_rows` (right-multiply by s_i, i in
        O, while w(alpha_i) is positive), here over root permutations.
        For sigma = identity these are the simple reflections, in node
        order."""
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


def close_permutations(generators: Sequence[bytes], cap: int) -> tuple[bytes, ...]:
    """Breadth-first closure of byte permutations under right multiplication,
    in discovery order, every element kept in a tuple and a set.  Raises
    GroupTooLargeError past the cap.  :func:`wsigma_elements` streams
    W^sigma from coset representatives instead.  The product w g is
    g.translate(w) once w is padded to a 256-byte table."""
    n = len(generators[0])
    ident = bytes(range(n))
    tail = bytes(range(n, 256))
    seen = {ident}
    order = [ident]
    queue = deque([ident])
    while queue:
        w = queue.popleft() + tail
        for g in generators:
            c = g.translate(w)
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


def classical_wsigma_perms(a: DiagramAutomorphism) -> tuple[bytes, ...]:
    """W^sigma for a flip of A_n or D_n, from the classical description of
    the Weyl group rather than a closure of it, as root permutations.

    W(A_n) permutes the n+1 ambient coordinates (enumerated with
    itertools.permutations), and the flip acts there as minus the
    reversal, so W^sigma is the centralizer of the reversal.  W(D_n) is
    the signed permutations of n coordinates with an even number of sign
    changes, and the flip negates the last coordinate, so W^sigma is the
    signed permutations that fix the last coordinate up to sign.  Each
    element becomes a root permutation by moving the ambient roots.
    """
    rs = a.base
    t = rs.cartan_type
    if a.tag != "flip" or t.family not in "AD":
        raise ValueError(f"no classical centralizer for {t} with {a.tag!r}")
    index = {ambient_vector(t, c): i for i, c in enumerate(rs.roots)}
    if set(index) != set(ambient_roots(t)):
        raise ValueError("integer and ambient root systems disagree")
    n = len(simple_root_vectors(t)[0])
    if t.family == "A":
        kept = [(p, (1,) * n) for p in itertools.permutations(range(n))
                if all(p[n - 1 - i] == n - 1 - p[i] for i in range(n))]
    else:
        kept = [(p, signs) for p in itertools.permutations(range(n)) if p[-1] == n - 1
                for signs in itertools.product((1, -1), repeat=n)
                if signs.count(-1) % 2 == 0]
    out = []
    for p, signs in kept:
        perm = []
        for v in index:  # in root order
            image = [0] * n
            for i, (x, e) in enumerate(zip(v, signs)):
                image[p[i]] = e * x
            perm.append(index[tuple(image)])
        out.append(bytes(perm))
    return tuple(out)


def fixed_space_matrices(action: RootPermutationAction, simple_perm: tuple[int, ...],
                         perms: Iterable[bytes]) -> tuple[Matrix, ...]:
    """Integer matrices of elements of W^sigma on the fixed subspace, over
    the projected simple roots beta_O = pi(alpha_j), j in O, where pi
    averages over sigma's powers.  An element w commutes with sigma, hence
    with pi, so w(beta_O') = pi(w(alpha_j)) for the first node j of O', and
    pi sends a root c to its orbit sums (sum_{i in O} c_i)_O: column O'
    holds the orbit sums of w(alpha_j).  The pipeline keeps one row of
    each generator's matrix, walked from the Cartan matrix
    (:func:`twistloop.weyl.steinberg_rows`)."""
    coords = action.root_system.roots
    orbits = _perm_orbits(simple_perm)
    firsts = [action.simple_indices[orb[0]] for orb in orbits]
    out = []
    for w in perms:
        cols = [coords[w[s]] for s in firsts]
        out.append(tuple(tuple(sum(c[i] for i in orb) for c in cols)
                         for orb in orbits))
    return tuple(out)


def restricted_fixed_space_group(action: RootPermutationAction,
                                 simple_perm: tuple[int, ...],
                                 stab: Sequence[bytes]) -> FiniteMatrixGroup:
    """Image of the stabilizer on the fixed subspace, over the projected
    simple roots; elements acting alike there collapse to one matrix."""
    images = dict.fromkeys(fixed_space_matrices(action, simple_perm, stab))
    return FiniteMatrixGroup(len(_perm_orbits(simple_perm)), tuple(images))


# ---------------------------------------------------------------------------
# W^sigma element by element: the streamed walk, characteristic-polynomial
# buckets from power traces, and the super-Molien average over them
# ---------------------------------------------------------------------------

def collapse_to_cohomological(s: BigradedSeries) -> tuple[int, ...]:
    """Single grading: coefficient of u^n is the sum of (a, b) slots with
    a + 2b = n.  Requires the series to have integer coefficients.  The
    pipeline expands the single series over the degrees directly."""
    out = [0] * (s.truncation + 1)
    for (a, b), c in s.coefficients.items():
        if not isinstance(c, int):
            raise ValueError(f"non-integer coefficient {c} at {(a, b)}")
        out[a + 2 * b] += c
    return tuple(out)


def dets_from_charpoly(cp: Sequence[Scalar]) -> tuple[tuple[Scalar, ...], tuple[Scalar, ...]]:
    """From cp = charpoly(M), return the coefficient lists (ascending) of
    det(1 + s*M) in s and det(1 - t*M) in t.

    With eigenvalues mu_i, det(1 + s*M) = prod(1 + s*mu_i) and
    det(1 - t*M) = prod(1 - t*mu_i); both are plain reversals of cp up to
    alternating signs.
    """
    n = len(cp) - 1
    if cp[n] != 1:
        raise ValueError("characteristic polynomial must be monic")
    num_s = tuple(normalize_scalar((-1) ** j * cp[n - j]) for j in range(n + 1))
    den_t = tuple(normalize_scalar(cp[n - j]) for j in range(n + 1))
    return num_s, den_t


def poly_inverse_series(den: Sequence[Scalar], nterms: int) -> list[Scalar]:
    """Power-series reciprocal of a polynomial with nonzero constant term."""
    if not den or den[0] == 0:
        raise ValueError("denominator has zero constant term")
    d0 = den[0]
    inv: list[Scalar] = []
    for k in range(nterms + 1):
        acc = 1 if k == 0 else 0
        for i in range(1, min(k, len(den) - 1) + 1):
            acc -= den[i] * inv[k - i]
        inv.append(normalize_scalar(Fraction(acc, 1) / d0))
    return inv


def rational_function_series(num_s: Sequence[Scalar], den_t: Sequence[Scalar],
                             truncation: int) -> BigradedSeries:
    """Expansion of num(s)/den(t) as a bigraded series, truncated at
    cohomological degree a + 2b <= truncation."""
    if truncation < 0:
        raise ValueError("truncation must be non-negative")
    inv = poly_inverse_series(den_t, truncation // 2)
    coeffs: dict[tuple[int, int], Scalar] = {}
    for a, na in enumerate(num_s):
        if na == 0 or a > truncation:
            continue
        for b in range((truncation - a) // 2 + 1):
            c = na * inv[b]
            if c != 0:
                coeffs[(a, b)] = c
    return BigradedSeries(truncation, coeffs)


def poly_mul_trunc(p: Sequence[Scalar], q: Sequence[Scalar], nterms: int) -> list[Scalar]:
    out = [0] * (nterms + 1)
    for i, a in enumerate(p):
        if a == 0 or i > nterms:
            continue
        for j, b in enumerate(q):
            if i + j > nterms:
                break
            if b:
                out[i + j] += a * b
    return [normalize_scalar(c) for c in out]


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


def wsigma_transversals(action: RootPermutationAction, simple_perm: tuple[int, ...],
                        generators: Sequence[bytes], order: int,
                        cap: int) -> tuple[tuple[bytes, ...], ...]:
    """Right coset representatives of W_{k-1} in W_k for k = 1..m, each
    found by a breadth-first search over the cosets, checked against the
    expected order of W^sigma.

    W_k is the subgroup generated by the first k Steinberg generators
    w_O, taken in sigma-orbit order.  Every element of W^sigma = W_m is a
    unique product x_1 x_2 ... x_m of right coset representatives x_k of
    W_{k-1} in W_k (Humphreys, Reflection Groups and Coxeter Groups,
    1.10), so |W^sigma| is the product of the transversal sizes.

    A coset W_{k-1} x is keyed by the coordinate at the first node of
    orbit O_k of x(alpha_i), over the simple roots alpha_i.  A simple
    reflection s_j changes only coordinate j, and W_{k-1} is made of s_j
    with j outside O_k, so the key is constant on the coset.  Two elements
    with the same key differ by an element of W^sigma fixing that
    coordinate functional, hence (it commutes with sigma) every
    coordinate functional of O_k; such an element lies in the parabolic
    subgroup without O_k, and within W_k that is W_{k-1}.

    Raises GroupTooLargeError when a coset search passes the cap, and
    ValueError when the coset counts do not multiply to order, the
    expected |W^sigma|: then the generators are not Steinberg's.
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
    if math.prod(map(len, transversals)) != order:
        raise ValueError(f"coset counts {[len(x) for x in transversals]} do not "
                         f"multiply to the group order {order}")
    return tuple(transversals)


def wsigma_elements(action: RootPermutationAction, simple_perm: tuple[int, ...],
                    generators: Sequence[bytes], order: int,
                    cap: int) -> Iterator[bytes]:
    """Stream W^sigma, each element once, with no element stored: walk
    the tree of products x_1 x_2 ... x_m of the coset representatives of
    :func:`wsigma_transversals` (which raises before the walk on a wrong
    generator set or past the cap), with one composition per tree node."""
    return _walk_products(wsigma_transversals(action, simple_perm, generators,
                                              order, cap))


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


# ---------------------------------------------------------------------------
# closed-form recognition on the series
# ---------------------------------------------------------------------------

def recognize_closed_form(series: Sequence[int],
                          candidate_degrees: Sequence[int]) -> ClosedForm | None:
    """Test whether the series equals prod (1+u^(2d-1))/(1-u^(2d)) over the
    candidate degrees, by exact coefficient comparison up to truncation.

    Raises ValueError when the truncation is too short to make the test
    meaningful (never reports a silent false negative).
    """
    truncation = len(series) - 1
    ds = sorted(candidate_degrees)
    if not ds:
        raise ValueError("need at least one candidate degree")
    if truncation < 2 * max(2 * d for d in ds) + 1:
        raise ValueError(f"truncation {truncation} too small to test degrees {ds}")
    if tuple(series) == product_over_degrees(ds, truncation):
        return ClosedForm(tuple(2 * d - 1 for d in ds), tuple(2 * d for d in ds))
    return None


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
