"""Independent references for the pipeline's facts, kept out of the pipeline.

No pipeline module imports this one at load time: ``--check`` does when
it runs, the package resolves the names it re-exports from here on first
use, and the tests and demos 04 and 05 import it.  W^sigma is the group
of Weyl group elements that commute with the diagram automorphism sigma.
Each fact the pipeline computes has one reference here.  The table names
it, with what the pipeline relies on for that fact and the reference
does not.

===============  ==================================  =====================================
fact             reference                           the pipeline alone relies on
===============  ==================================  =====================================
roots            ``ambient_roots``: the classical    the root count formulas: compute()
                 simple roots closed under           forms no root
                 Euclidean reflections, in
                 Fractions; ``build_root_system``,
                 closed from the Cartan matrix
Cartan matrix    ``cartan_from_gram`` of             the Dynkin diagram: -max(l_i, l_j) /
                 ``simple_gram``, the diagram's      l_j at an edge, l the squared
                 integer Gram matrix, one divmod     lengths, and 0 off the edges
                 per entry
twist check      ``automorphism_matrix``: sigma as   a tag names a diagram symmetry
                 an ambient linear map, which must   exactly where the folding table
                 permute the ambient roots; a tag's  (``expected_folded_type``) has
                 node permutation is                 its entry; explicit images
                 ``simple_perm_for_tag``             (``resolve_twist``): a symmetry of
                                                     the Dynkin diagram extends to an
                                                     automorphism of the root system
sigma's orbits   ``root_permutation``: sigma on      the orbit formula: sigma has order
                 the roots, its orbits walked;       o = 1, 2 or 3 and distinct orbits
                 ``positive_orbit_sizes``: its       project to distinct vectors, so of
                 fixed positive roots counted        the N positive roots it fixes
                                                     (o k - N) / (o - 1), k the folded
                                                     type's positive root count (plus its
                                                     rank for an A_2m flip)
fold             ``classify_folded_roots``: the      the folding table: the rows are the
                 ``orbit_sum_projection`` of the     table type's simple reflections,
                 roots, its base found from          read off its Cartan matrix, so the
                 scratch under ``projected_gram``    folded roots are that type's
                 and matched to the expected type;   closure
                 ``folded_root_system``: the
                 indivisible ``project_roots``,
                 closed under the walked rows
rows             ``projected_gram``: row k is minus  Steinberg (1968): each w_O acts on
                 column k of the Cartan matrix of    the fixed subspace as the simple
                 the projected simple roots, from    reflection in the projected root,
                 the ambient inner products;         so row k is minus column k of the
                 ``steinberg_rows``: each w_O        folded type's Cartan matrix, read
                 walked from the Cartan matrix,      with no walk and no match; for the
                 its rows matched to the folded      identity, the definition
                 type's (``check_folded_roots``)
|W^sigma|        ``wsigma_by_definition``: the       Steinberg: the w_O generate W^sigma,
                 stabilizer of the fixed subspace    and W^sigma is the Weyl group of the
                 in the enumerated W, restricted     folded type
coset indices    ``close_permutations``: the         the stabilizer in W_k of the k-th
                 orders of the subgroups the first   coordinate functional is W_(k-1), so
                 k generators close to, divided      each index is the size of its orbit
degrees, series  ``super_molien_from_buckets``:      Chevalley: the invariant ring is
                 Molien's average over the           polynomial, in degrees certified by
                 elements of W^sigma, bucketed by    their product and a Jacobian mod p;
                 characteristic polynomial           Solomon: the series is their product
--check series   ``brute_force_invariant_dims``      all of the rows above
                 over ``wsigma_by_definition``:
                 invariants counted on explicit
                 monomial bases
closed form      ``recognize_closed_form``: the      the series is the product over the
                 series and the product compared     certified degrees
                 coefficient by coefficient
excluded primes  ``WeylPermutationGroup``: it       |W| is the product of the degrees
                 counts W and checks the count
                 against the order formula, whose
                 primes the tests compare
===============  ==================================  =====================================

The buckets come from power traces (:func:`fixed_space_charpoly_buckets`),
checked against Berkowitz :func:`charpoly` on the definition's matrices.
Both stay: power traces are 18 to 35 times faster on W(E6), W(B6) and
W(A7), which the certificate test walks.  The rest of the module is what
these references are built from: the integer root closure, the twist
and the reference fold, exact rational vectors and matrices, Gaussian
elimination (fraction-free, :func:`integer_kernel`, for the brute-force
count's fixed spaces), the classical realization and the simple
reflections as byte permutations of the roots.  Every group is
enumerated by one closure, :func:`close_permutations`, on those
permutations; the acceptance suite's extended even orthogonal route
(criterion 5) closes W(D_m) with its diagram flip there too.  Molien's
average is one integer expansion per bucket, read off the characteristic
polynomial, and forms no Fraction.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from operator import add, mul, neg

from .exact import BigradedSeries, Record, product_over_degrees
from .report import ClosedForm
from .rootsys import (CartanType, cartan_matrix, degrees, dynkin_diagram, root_count,
                      weyl_order)
from .twist import _perm_orbits, _perm_order, expected_folded_type, resolve_twist
from .weyl import GroupTooLargeError

ORACLE_MAX_DIM = 3
ORACLE_ELEMENT_CAP = 10**7  # the references' own bound on a group they close
ORACLE_MAX_DEGREE = 12
MAX_BYTE_ROOTS = 255  # one byte per root index

Scalar = int | Fraction
Vector = tuple[Scalar, ...]
Matrix = tuple[tuple[Scalar, ...], ...]
CharPoly = tuple[Scalar, ...]


# ---------------------------------------------------------------------------
# exact rational vectors and matrices
# ---------------------------------------------------------------------------

def normalize_scalar(x: Scalar) -> Scalar:
    """Collapse an integral Fraction to a plain int (faster arithmetic
    downstream); any other value is returned as it is."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


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


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product; raises ValueError on a dimension mismatch."""
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        raise ValueError(f"dimension mismatch: {ra}x{ca} times {rb}x{cb}")
    bt = tuple(zip(*b))
    return tuple(tuple(normalize_scalar(sum(x * y for x, y in zip(row, col))) for col in bt)
                 for row in a)


# ---------------------------------------------------------------------------
# exact Gaussian elimination: rank, kernels, inverses
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


def integer_kernel(m: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """:func:`kernel_basis` of an integer matrix, each vector scaled to a
    primitive integer one, positive at its free column, with no Fraction.

    Fraction-free Gauss-Jordan elimination (Bareiss 1968): a step with
    pivot q replaces every other row by (q row - f pivot row) / p, f the
    row's entry in the pivot column and p the previous step's pivot.  The
    division is exact, since every entry is then a minor of the matrix,
    and every pivot ends equal to the last one, d.  A free column c gives
    the vector with d at c and minus row r's entry in column c at row r's
    pivot column.  Zero and repeated rows change neither the reduced
    echelon form nor its kernel: repeated rows are dropped at the start,
    zero rows as they appear."""
    ncols = len(m[0]) if m else 0
    rows = list(dict.fromkeys(tuple(row) for row in m if any(row)))
    pivots, prev = [], 1
    for c in range(ncols):
        r = len(pivots)
        k = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        head = rows[r]
        q = head[c]
        rows = [head if i == r else [(q * x - row[c] * y) // prev for x, y in zip(row, head)]
                for i, row in enumerate(rows)]
        rows[r + 1:] = [row for row in rows[r + 1:] if any(row)]
        pivots.append(c)
        prev = q
    basis = []
    for c in range(ncols):
        if c not in pivots:
            v = [0] * ncols
            v[c] = prev
            for row, pc in zip(rows, pivots):
                v[pc] = -row[c]
            g = math.gcd(*v) * (1 if prev > 0 else -1)
            basis.append(tuple(x // g for x in v))
    return basis


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
# the integer root system, the twist and the fold, measured
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _closure(cartan: tuple[tuple[int, ...], ...], limit: int) -> tuple[tuple[int, ...], ...]:
    """The positive roots of the Cartan matrix, sorted: the closure of the
    simple roots (unit vectors) under raising steps; a closure past limit
    roots, counting each positive root and its negative, is an error.

    Each new root c comes with its pairings p_k = <c, alpha_k^vee>, row i
    of the Cartan matrix for alpha_i.  Then s_i(c) = c - p_i e_i, and the
    pairings of s_i(c) are p - p_i (A_i0, ..., A_i,r-1).  Only raising
    steps, p_i < 0, are taken.  s_i permutes the positive roots other than
    alpha_i, so a raising step from a positive root lands on one.  Every
    positive root c but a simple one has some p_i > 0, and s_i(c) is a
    positive root of smaller height with pairing -p_i < 0, one raising step
    below c: by induction on the height the steps reach every positive
    root.
    """
    r = len(cartan)
    frontier = [(tuple(int(j == i) for j in range(r)), cartan[i]) for i in range(r)]
    positive = {c for c, _ in frontier}
    while frontier:
        nxt = []
        for c, pairing in frontier:
            for i, k in enumerate(pairing):
                if k < 0:
                    d = list(c)
                    d[i] -= k
                    d = tuple(d)
                    if d not in positive:
                        positive.add(d)
                        nxt.append((d, tuple([p - k * a for p, a in zip(pairing, cartan[i])])))
        if 2 * len(positive) > limit:
            raise ValueError(f"root closure passed {limit} roots")
        frontier = nxt
    return tuple(sorted(positive))


class RootSystem:
    """Immutable bundle of a type, its Cartan matrix and its positive roots,
    checked on them: the root count, one sign per root, and
    product-of-degrees == Weyl order.

    ``positive[i]`` is positive root i as an integer vector over the simple
    base, in sorted order.  ``roots``, all the roots sorted, is formed on
    first read: negation reverses the lexicographic order and a nonpositive
    vector sorts before every nonnegative one, so the negated positive
    roots, reversed, come first.
    """

    def __init__(self, cartan_type: CartanType):
        t = cartan_type
        self.cartan_type = t
        self.cartan_matrix = cartan_matrix(t)
        expected = root_count(t)
        self.positive = _closure(self.cartan_matrix, expected)
        if 2 * len(self.positive) != expected:
            raise ValueError(f"{t}: built {2 * len(self.positive)} roots, expected {expected}")
        if min(map(min, self.positive)) < 0:
            raise ValueError("root coordinates of mixed sign")
        if math.prod(degrees(t)) != weyl_order(t):
            raise ValueError("degree product disagrees with Weyl order")

    @cached_property
    def roots(self) -> tuple[tuple[int, ...], ...]:
        return tuple([tuple(map(neg, c)) for c in reversed(self.positive)]) + self.positive

    def __repr__(self):
        return f"RootSystem({self.cartan_type}, {2 * len(self.positive)} roots)"


def build_root_system(t: CartanType) -> RootSystem:
    return RootSystem(t)


class DiagramAutomorphism(Record):
    """A Dynkin-diagram symmetry of a root system: its node permutation,
    order and tag."""

    __slots__ = ("base", "simple_perm", "order", "tag")
    base: RootSystem
    simple_perm: tuple[int, ...]
    order: int
    tag: str

    @property
    def simple_orbits(self) -> tuple[tuple[int, ...], ...]:
        return _perm_orbits(self.simple_perm)


def simple_perm_for_tag(t: CartanType, tag: str) -> tuple[int, ...]:
    """The node permutation of a tag that :func:`expected_folded_type` has
    passed."""
    fam, r = t.family, t.rank
    if tag == "identity":
        return tuple(range(r))
    if tag == "flip":
        if fam == "A":
            return tuple(r - 1 - i for i in range(r))
        if fam == "D":
            return tuple(range(r - 2)) + (r - 1, r - 2)
        return (5, 1, 4, 3, 2, 0)  # E6
    # D4: nodes 1 -> 3 -> 4 -> 1 with node 2 fixed, or the inverse cycle
    return (2, 1, 3, 0) if tag == "triality" else (3, 1, 0, 2)


def make_automorphism(rs: RootSystem, spec: str | Sequence[int]) -> DiagramAutomorphism:
    """Build a diagram automorphism from a tag, checked by the folding
    table (:func:`twistloop.twist.expected_folded_type`) and spelled by
    :func:`simple_perm_for_tag`, or from explicit simple-node images
    (0-based), checked on the Dynkin diagram
    (:func:`twistloop.twist.resolve_twist`).  The roots are not permuted."""
    t = rs.cartan_type
    if isinstance(spec, str):
        expected_folded_type(t, spec)
        perm, tag = simple_perm_for_tag(t, spec), spec
    else:
        perm, tag = tuple(spec), resolve_twist(t, spec)
    return DiagramAutomorphism(rs, perm, _perm_order(perm), tag)


def positive_orbit_sizes(a: DiagramAutomorphism) -> tuple[int, ...]:
    """Sorted orbit sizes of the automorphism on the positive roots.  Its
    order is 1, 2 or 3, so an orbit is one root that sigma fixes
    (c[i] == c[perm[i]] for every node i) or has as many roots as its
    order: only the fixed roots are counted, and no root is permuted."""
    positive = a.base.positive
    moved = [(i, p) for i, p in enumerate(a.simple_perm) if i != p]
    fixed = sum(all(c[i] == c[p] for i, p in moved) for c in positive)
    return (1,) * fixed + (a.order,) * ((len(positive) - fixed) // a.order)


def project_roots(a: DiagramAutomorphism) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Projections of the positive roots over the projected simple roots
    beta_O, with their multiplicities, sorted: root c goes to its orbit
    sums (sum_{i in O} c_i)_O.  The projection commutes with negation, so
    the negative roots' are these negated.  Each orbit sum is read through
    one index list per position in the orbits, a padded 0 standing in past
    a short orbit's end."""
    orbits = a.simple_orbits
    pad = len(a.simple_perm)
    first, *rest = [[orb[p] if p < len(orb) else pad for orb in orbits]
                    for p in range(a.order)]
    counts: dict[tuple[int, ...], int] = {}
    for c in a.base.positive:
        get = (c + (0,)).__getitem__
        v = map(get, first)
        for index in rest:
            v = map(add, v, map(get, index))
        v = tuple(v)
        counts[v] = counts.get(v, 0) + 1
    return tuple(sorted(counts.items()))


class FoldingResult(Record):
    """The folded positive roots, integer vectors over the projected simple
    roots and sorted, the folded type, the rows (:func:`steinberg_rows`)
    that certified it, and the row matched to each node of the folded
    type's Dynkin diagram."""

    __slots__ = ("folded_roots", "folded_type", "rows", "nodes")
    folded_roots: tuple[tuple[int, ...], ...]
    folded_type: CartanType
    rows: tuple[tuple[int, ...], ...]
    nodes: tuple[int, ...]


def steinberg_rows(t: CartanType, simple_perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Row k of g_k - 1 for each of Steinberg's generators g_k of W^sigma,
    the elements of the Weyl group of type t commuting with the diagram
    automorphism sigma that permutes the simple nodes by simple_perm, on
    the fixed subspace over the projected simple roots beta_O, k in
    sigma-orbit order.

    By Steinberg (Endomorphisms of linear algebraic groups, 1968),
    W^sigma is generated by the longest elements w_O of the parabolic
    subgroups W_O, one for each sigma-orbit O of simple nodes.  w_O is
    reached from the identity by right-multiplying with a simple
    reflection s_i, i in O, while w(alpha_i) is positive: each step
    lengthens w, and the walk stops once every simple root of O is sent
    negative.  For sigma = identity w_O is the simple reflection s_k.  No
    element is longer than the positive roots are many, which bounds the
    walk.

    w is a product of the s_i with i in O, and s_i changes coordinate i
    alone, so w(alpha_j) differs from alpha_j only on O.  The walk keeps
    the coordinates of O alone, of the columns w(alpha_j) for j in O and
    for the first nodes j of the orbits next to O in the Dynkin diagram,
    and moves them one Cartan entry each per step: (w s_i)(alpha_j) =
    w(alpha_j) - A_ji w(alpha_i).  Any other column has A_ji = 0 for every
    i in O, so it stays alpha_j, 0 on O.  w(alpha_i), i in O, lies in the
    span of O, and a root's coordinates share one sign.

    g_k commutes with sigma, so g_k(beta_O') is the orbit sums of
    w_k(alpha_j), j the first node of O': entry O' of row k is the sum over
    O_k of w_k(alpha_j), less 1 when O' = O_k, and 0 off O_k and its
    neighbours; w_k keeps every orbit sum outside O_k, so no other row of
    g_k - 1 is nonzero.  g_k sends phi to phi + phi_k row_k and changes a
    vector v in entry k alone, by row_k . v; the dense matrices
    (:func:`fixed_space_matrices`) are its reference.
    """
    cartan = cartan_matrix(t)
    steps = root_count(t) // 2
    orbits = _perm_orbits(simple_perm)
    slot = {orb[0]: k for k, orb in enumerate(orbits)}
    rows = []
    for k, orb in enumerate(orbits):
        near = [j for i in orb for j, a in enumerate(cartan[i]) if a and j in slot]
        cols = {j: [int(i == j) for i in orb] for j in (*orb, *near)}
        for _ in range(steps + 1):
            i = next((i for i in orb if max(cols[i]) > 0), None)
            if i is None:
                break
            image = cols[i]
            for j, col in cols.items():
                a = cartan[j][i]
                if a:
                    cols[j] = [x - a * y for x, y in zip(col, image)]
        else:
            raise ValueError("parabolic longest element longer than the root count allows")
        row = [0] * len(orbits)
        for j, col in cols.items():
            if j in slot:
                row[slot[j]] = sum(col)
        row[k] -= 1
        rows.append(tuple(row))
    return tuple(rows)


def folded_root_system(a: DiagramAutomorphism) -> FoldingResult:
    """Fold the positive roots, certified on the walked rows
    (:func:`check_folded_roots`): the projections v with v/2 not a
    projection; for sigma = identity the positive roots, none dropped."""
    t = a.base.cartan_type
    if a.order == 1:
        folded, expected = a.base.positive, t
    else:
        projected = project_roots(a)
        found = {v for v, _ in projected}
        folded = tuple([v for v, _ in projected
                        if any(c % 2 for c in v) or tuple([c // 2 for c in v]) not in found])
        expected = expected_folded_type(t, a.tag)
    rows = steinberg_rows(t, a.simple_perm)  # one per sigma-orbit
    return FoldingResult(folded, expected, rows, check_folded_roots(folded, rows, expected))


def _rows_cartan(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The Cartan matrix C_jk = -row_k[j] of the reflections with these rows."""
    return tuple(zip(*[map(neg, row) for row in rows]))


def check_folded_roots(roots: Sequence[Sequence[int]], rows: Sequence[Sequence[int]],
                       expected: CartanType) -> tuple[int, ...]:
    """Raise ValueError unless roots, integer vectors over a base in
    ascending order, are the positive roots of the expected type with that
    base as its simple roots and the reflections with the given rows (row
    k changes coordinate k alone, by row_k . v) as its simple reflections:
    the Cartan matrix C_jk = -row_k[j] is the type's in some order of the
    nodes, and the roots are the closure of the base under those
    reflections' raising steps, as the closure sorts it: one tuple
    comparison.  The group then permutes the roots and their negatives.
    Linear in the root count and the rank.  Returns that order: the row
    matched to each node of the type's Dynkin diagram."""
    n = expected.rank
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError("folded rows act in the wrong dimension")
    cartan = _rows_cartan(rows)
    nodes = _match_cartan(cartan, cartan_matrix(expected))
    if nodes is None:
        raise ValueError(f"folded Cartan matrix does not match {expected}")
    if _closure(cartan, root_count(expected)) != tuple(roots):
        raise ValueError(f"folded set is not the root system of {expected}")
    return nodes


def _match_cartan(cand: Sequence[Sequence[int]],
                  std: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    n = len(std)
    if sorted(tuple(sorted(r)) for r in cand) != sorted(tuple(sorted(r)) for r in std):
        return None

    assignment: list[int] = []
    used = [False] * n

    def extend() -> bool:
        i = len(assignment)
        if i == n:
            return True
        for c in range(n):
            if used[c]:
                continue
            if cand[c][c] != std[i][i]:
                continue
            if all(cand[c][assignment[j]] == std[i][j]
                   and cand[assignment[j]][c] == std[j][i] for j in range(i)):
                assignment.append(c)
                used[c] = True
                if extend():
                    return True
                assignment.pop()
                used[c] = False
        return False

    return tuple(assignment) if extend() else None


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


def simple_gram(t: CartanType) -> Matrix:
    """Inner products (alpha_i, alpha_j) of the simple roots, an integer
    matrix read off the Dynkin diagram: the squared lengths on the
    diagonal, minus half the larger of the two at an edge (a single, double
    or triple bond between roots whose squared lengths are equal, in ratio
    2 or in ratio 3), and 0 elsewhere.  With :func:`cartan_from_gram` it is
    the reference for :func:`twistloop.rootsys.cartan_matrix`."""
    lengths, edges = dynkin_diagram(t)
    gram = [[0] * len(lengths) for _ in lengths]
    for i, length in enumerate(lengths):
        gram[i][i] = length
    for i, j in edges:
        gram[i][j] = gram[j][i] = -(max(lengths[i], lengths[j]) // 2)
    return tuple(map(tuple, gram))


def cartan_from_gram(gram: Matrix) -> tuple[tuple[int, ...], ...]:
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


def root_permutation(a: DiagramAutomorphism) -> tuple[int, ...]:
    """sigma on the root indices, each image looked up in an index of the
    roots: root c goes to c' with c'[perm[j]] = c[j].  The pipeline reads
    sigma's orbit sizes off the types instead
    (:func:`twistloop.twist.orbit_sizes`), and
    :func:`positive_orbit_sizes` counts them from its fixed roots."""
    roots, perm = a.base.roots, a.simple_perm
    index = {c: i for i, c in enumerate(roots)}
    inverse = sorted(range(len(perm)), key=perm.__getitem__)
    return tuple(index[tuple(c[j] for j in inverse)] for c in roots)


def orbit_sum_projection(a: DiagramAutomorphism) -> tuple[tuple[Vector, int], ...]:
    """Averages of the roots over the automorphism's powers, written in the
    orbit-sum basis b_O = sum_{i in O} alpha_i of the fixed subspace;
    deduplicated, multiplicities retained.  Coordinate O is
    :func:`project_roots`' divided by |O|."""
    rs = a.base
    r = rs.cartan_type.rank
    reps = [orb[0] for orb in a.simple_orbits]
    sigma = root_permutation(a)
    counts: dict[Vector, int] = {}
    for idx in range(len(rs.roots)):
        avg = [0] * r
        j = idx
        for _ in range(a.order):
            for i, c in enumerate(rs.roots[j]):
                avg[i] += c
            j = sigma[j]
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
    (alpha_i, alpha_j) over i in O and j in O', divided by |O||O'|.
    The reference for the folded Cartan matrix the pipeline reads its rows
    off; it shares no Gram matrix with the pipeline."""
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
# characteristic polynomials, and groups of matrices and of root permutations
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

    def __repr__(self):
        return f"FiniteMatrixGroup(dim={self.dim}, order={len(self)})"


def super_molien(group: FiniteMatrixGroup, truncation: int) -> BigradedSeries:
    return super_molien_from_buckets(group.charpoly_buckets, len(group), truncation)


class RootPermutationAction:
    """The simple reflections of a Weyl group as permutations of the root set.

    Each element is a bytes object p with p[i] = image index of root i, and
    products compose right to left: (w g)[i] = w[g[i]].  The matrix of an
    element over the simple-root basis has column j equal to the image of
    simple root j, a root in its own coordinates.  The walk of
    Steinberg's generators on their columns alone is
    :func:`steinberg_rows`.
    """

    def __init__(self, root_system: RootSystem):
        rs = root_system
        if len(rs.roots) > MAX_BYTE_ROOTS:
            raise GroupTooLargeError("root set too large for byte-permutation encoding")
        self.root_system = rs
        self.positive = tuple(min(c) >= 0 for c in rs.roots)
        index = {c: i for i, c in enumerate(rs.roots)}
        cartan, rank = rs.cartan_matrix, rs.cartan_type.rank
        self.simple_indices = tuple(index[_unit(rank, i)] for i in range(rank))
        self.simple_reflections = tuple(
            bytes(index[simple_reflection(c, i, cartan)] for c in rs.roots)
            for i in range(rank))

    def steinberg_generators(self, simple_perm: tuple[int, ...]) -> tuple[bytes, ...]:
        """Generators of W^sigma, the elements commuting with the diagram
        automorphism sigma that permutes the simple nodes by simple_perm:
        the longest elements w_O of the parabolic subgroups W_O, one for
        each sigma-orbit O of simple nodes, reached by the walk of
        :func:`steinberg_rows` (right-multiply by s_i, i in O, while
        w(alpha_i) is positive), here over root permutations.
        For sigma = identity these are the simple reflections, in node
        order."""
        positive = self.positive
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
    GroupTooLargeError past the cap.  The product w g is g.translate(w)
    once w is padded to a 256-byte table."""
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

    The pipeline enumerates no element; this full enumeration is the
    reference the tests check W^sigma and its buckets against.
    """

    def __init__(self, root_system: RootSystem, cap: int = ORACLE_ELEMENT_CAP):
        super().__init__(root_system)
        order = weyl_order(root_system.cartan_type)
        if order > cap:
            raise GroupTooLargeError(f"Weyl group of order {order} exceeds the cap {cap}")
        self.elements = close_permutations(self.simple_reflections, cap)
        if len(self.elements) != order:
            raise ValueError(f"enumerated {len(self.elements)} elements, "
                             f"expected {order}")

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


def fixed_space_matrices(action: RootPermutationAction, simple_perm: tuple[int, ...],
                         perms: Iterable[bytes]) -> tuple[Matrix, ...]:
    """Integer matrices of elements of W^sigma on the fixed subspace, over
    the projected simple roots beta_O = pi(alpha_j), j in O, where pi
    averages over sigma's powers.  An element w commutes with sigma, hence
    with pi, so w(beta_O') = pi(w(alpha_j)) for the first node j of O', and
    pi sends a root c to its orbit sums (sum_{i in O} c_i)_O: column O'
    holds the orbit sums of w(alpha_j).  The walk keeps one row of each
    generator's matrix (:func:`steinberg_rows`)."""
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


def wsigma_by_definition(aut: DiagramAutomorphism) -> FiniteMatrixGroup:
    """W^sigma on the fixed subspace, from its definition and no
    generators: the elements of the enumerated Weyl group that preserve
    sigma's fixed subspace, as matrices over the projected simple roots.
    Such an element w commutes with sigma: sigma w sigma^-1 agrees with w on
    the fixed subspace, which holds the regular vector rho, and only the
    identity of W fixes rho.  For sigma = identity every element is kept,
    as its lattice matrix."""
    weyl = WeylPermutationGroup(aut.base)
    perm = aut.simple_perm
    return restricted_fixed_space_group(weyl, perm, fixed_space_stabilizer_perms(weyl, perm))


# ---------------------------------------------------------------------------
# W^sigma element by element: characteristic-polynomial buckets from power
# traces, and the super-Molien average over them
# ---------------------------------------------------------------------------

def collapse_to_cohomological(s: BigradedSeries) -> tuple[int, ...]:
    """Single grading: coefficient of u^n is the sum of (a, b) slots with
    a + 2b = n.  The pipeline expands the single series over the degrees
    directly."""
    out = [0] * (s.truncation + 1)
    for (a, b), c in s.coefficients.items():
        out[a + 2 * b] += c
    return tuple(out)


def super_molien_from_buckets(buckets: dict[CharPoly, int], order: int,
                              truncation: int) -> BigradedSeries:
    """The super-Molien series of a group G on an n-dimensional space,

        P(s, t) = 1/|G| * sum_g det(1 + s g) / det(1 - t g),

    the bigraded dimension series of the invariants of (exterior algebra)
    x (polynomial algebra).  Both determinants depend only on cp =
    charpoly(g), monic and ascending, so the sum is taken per bucket:
    det(1 + s g) has the coefficients e_a = (-1)^a cp[n - a], and
    1/det(1 - t g) = sum_b h_b t^b with h_0 = 1 and
    h_b = -sum_(j >= 1) cp[n - j] h_(b - j).  Every step is an integer
    one; the only division is the average, exact for a group, so a
    remainder raises ValueError."""
    if truncation < 0:
        raise ValueError("truncation must be non-negative")
    if order <= 0:
        raise ValueError("empty group")
    width = truncation // 2 + 1
    zeros = [0] * width
    # a -> the coefficients of s^a t^b, b < width, summed over g; the
    # series drops those past the truncation
    rows: dict[int, list[int]] = {}
    for cp, mult in buckets.items():
        n = len(cp) - 1
        if cp[n] != 1:
            raise ValueError("characteristic polynomial must be monic")
        den = cp[:n][::-1]  # cp[n - j] for j = 1..n
        h = [1]
        for _ in range(1, width):
            h.append(-sum(c * x for c, x in zip(den, reversed(h))))
        for a in range(n + 1):
            e = mult * (-1) ** a * cp[n - a]
            if e:
                rows[a] = [x + e * y for x, y in zip(rows.get(a, zeros), h)]
    averaged = {}
    for a, row in sorted(rows.items()):
        for b, c in enumerate(row):
            v, rest = divmod(c, order)
            if rest:
                raise ValueError("non-integer invariant dimension: input is not a group")
            if v:
                averaged[(a, b)] = v
    return BigradedSeries(truncation, averaged)


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
    # cofactor expansion, O(n!): the invariant counts call it on blocks of size
    # <= ORACLE_MAX_DIM, and the elimination test on sparse matrices up to n = 9
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


def _symmetric_action(g: Matrix, b: int, lower: list[list[Scalar]]) -> list[list[Scalar]]:
    """g on the degree-b monomials (b >= 1), in :func:`_exponent_tuples`
    order, from lower, g on those of degree b - 1: a monomial x_v m, v its
    first variable, maps to the linear form g x_v times the image of m,
    column m of lower, one product per column."""
    n = len(g)
    monomials, below = _exponent_tuples(n, b), _exponent_tuples(n, b - 1)
    index = {m: i for i, m in enumerate(monomials)}
    rest = {m: i for i, m in enumerate(below)}
    # up[j][i]: the index of monomial j of degree b - 1 times x_i
    up = [[index[m[:i] + (m[i] + 1,) + m[i + 1:]] for i in range(n)] for m in below]
    out = [[0] * len(monomials) for _ in monomials]
    for col, expo in enumerate(monomials):
        v = next(i for i, e in enumerate(expo) if e)
        m = rest[expo[:v] + (expo[v] - 1,) + expo[v + 1:]]
        form = [(i, g[i][v]) for i in range(n) if g[i][v]]
        for row, targets in zip(lower, up):
            c = row[m]
            if c:
                for i, a in form:
                    out[targets[i]][col] += c * a
    return out


def _exponent_tuples(n: int, total: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in _exponent_tuples(n - 1, total - first):
            out.append((first,) + rest)
    return out


def _joint_fixed_dimension(pairs: Sequence[tuple[list[list[Scalar]], list[list[Scalar]]]],
                           ) -> int:
    """Dimension of the common fixed space of the e (x) s over the pairs
    (e, s), by iterated exact kernels of the (e (x) s - I) blocks on the
    current basis B, in integers (:func:`integer_kernel`), so B stays
    integral, and an element with (e (x) s - I) B = 0 fixes all of span(B)
    and is passed over.  No tensor product is formed: each basis column
    goes through e and s one at a time (:func:`_tensor_image`)."""
    dim = len(pairs[0][0]) * len(pairs[0][1])
    basis_cols = [tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]
    for e, s in pairs:
        if not basis_cols:
            return 0
        images = [_tensor_image(e, s, col) for col in basis_cols]
        rows = [tuple(image[i] - col[i] for image, col in zip(images, basis_cols))
                for i in range(dim)]
        if not any(map(any, rows)):
            continue
        # each kernel vector's nonzero coefficients scale whole columns,
        # summed entry by entry
        basis_cols = [tuple(map(sum, zip(*[[c * x for x in col]
                                           for c, col in zip(kv, basis_cols) if c])))
                      for kv in integer_kernel(rows)]
    return len(basis_cols)


def _tensor_image(e: list[list[Scalar]], s: list[list[Scalar]],
                  col: Sequence[Scalar]) -> list[Scalar]:
    """(e (x) s) col, col read as the de x ds matrix M with entry (i, k) at
    i ds + k: e M s^T, flattened the same way."""
    ds = len(s)
    m = [col[j:j + ds] for j in range(0, len(col), ds)]
    m_st = [[sum(map(mul, row, s_row)) for s_row in s] if any(row) else [0] * ds
            for row in m]
    return [sum(map(mul, e_row, column)) for e_row in e for column in zip(*m_st)]


def brute_force_invariant_dims(group: FiniteMatrixGroup,
                               max_total_degree: int) -> BigradedSeries:
    """Invariant dimensions by explicit monomial bases, independent of the
    super-Molien route: for each bidegree (a, b) with a + 2b within range,
    the joint fixed subspace of the induced action on (exterior degree a)
    x (polynomial degree b) is computed by exact kernel elimination, each
    element applied through its two factors (:func:`_joint_fixed_dimension`).
    The at most ORACLE_MAX_DIM + 1 exterior powers are built first and
    kept, so each symmetric power is built once, from the one below it
    (:func:`_symmetric_action`)."""
    if group.dim > ORACLE_MAX_DIM:
        raise ValueError(f"oracle guard: dimension {group.dim} exceeds {ORACLE_MAX_DIM}")
    if max_total_degree > ORACLE_MAX_DEGREE:
        raise ValueError(f"oracle guard: degree {max_total_degree} exceeds "
                         f"{ORACLE_MAX_DEGREE}")
    top = min(group.dim, max_total_degree)
    exts = [[_exterior_action(g, a) for g in group.elements] for a in range(top + 1)]
    dims: dict[tuple[int, int], int] = {}
    sym = [[[1]] for _ in group.elements]  # each g on the degree-0 monomial
    for b in range(max_total_degree // 2 + 1):
        if b:
            sym = [_symmetric_action(g, b, s) for g, s in zip(group.elements, sym)]
        for a in range(min(top, max_total_degree - 2 * b) + 1):
            dims[(a, b)] = _joint_fixed_dimension(list(zip(exts[a], sym)))
    return BigradedSeries(max_total_degree, dims)


def check_note(t: CartanType, automorphism: str | Sequence[int],
               bigraded: BigradedSeries) -> str:
    """``--check``: the brute-force invariant dimensions of W^sigma, taken
    from its definition, against the pipeline's bigraded series, through
    total degree ORACLE_MAX_DEGREE; the report's note, or ValueError at
    the first mismatch.  Skipped past dimension ORACLE_MAX_DIM."""
    aut = make_automorphism(build_root_system(t), automorphism)
    dim = len(aut.simple_orbits)
    if dim > ORACLE_MAX_DIM:
        return f"oracle skipped: restricted dimension {dim} exceeds {ORACLE_MAX_DIM}"
    max_deg = min(ORACLE_MAX_DEGREE, bigraded.truncation)
    dims = brute_force_invariant_dims(wsigma_by_definition(aut), max_deg)
    for (a, b), c in dims.coefficients.items():
        if bigraded[(a, b)] != c:
            raise ValueError(f"oracle mismatch at bidegree {(a, b)}: "
                             f"{c} vs {bigraded[(a, b)]}")
    for (a, b), c in bigraded.coefficients.items():
        if a + 2 * b <= max_deg and dims[(a, b)] != c:
            raise ValueError(f"oracle mismatch at bidegree {(a, b)}")
    return (f"oracle: brute-force invariant dimensions match the series "
            f"through total degree {max_deg}")
