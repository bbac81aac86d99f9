"""Exact rational vectors and matrices, characteristic polynomials from
power traces, and truncated bigraded power series.

Scalars are Python ints and ``fractions.Fraction`` values (a Fraction is
always stored in lowest terms with positive denominator).  Vectors and
matrices are immutable tuples, so every value is hashable and can be used
directly as a dictionary key.  No operation in this package ever touches
floating point.

A :class:`BigradedSeries` records the dimensions of the graded pieces of
an (exterior algebra) x (polynomial algebra) as a sparse map

    (exterior degree a, polynomial degree b) -> coefficient

truncated at cohomological degree a + 2b <= truncation.  The exterior
part contributes degree a, the polynomial part degree 2b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Scalar = int | Fraction
Vector = tuple[Scalar, ...]
Matrix = tuple[tuple[Scalar, ...], ...]

DEFAULT_TRUNCATION = 50


def normalize_scalar(x: Scalar) -> Scalar:
    """Collapse integral Fractions to plain int (faster arithmetic downstream)."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
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


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product; raises ValueError on a dimension mismatch."""
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        raise ValueError(f"dimension mismatch: {ra}x{ca} times {rb}x{cb}")
    bt = tuple(zip(*b))
    return tuple(tuple(normalize_scalar(sum(x * y for x, y in zip(row, col))) for col in bt)
                 for row in a)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    rows, cols = mat_shape(a)
    if cols != len(v):
        raise ValueError(f"dimension mismatch: {rows}x{cols} times vector of length {len(v)}")
    return tuple(normalize_scalar(sum(x * y for x, y in zip(row, v))) for row in a)


# ---------------------------------------------------------------------------
# characteristic polynomials from power traces, and the determinant
# polynomials derived from them
# ---------------------------------------------------------------------------

def charpoly_from_power_traces(traces: Sequence[Scalar], n: int) -> tuple[Scalar, ...]:
    """Recover the (monic, ascending) characteristic polynomial of an n x n
    matrix from the traces of its first n powers, via Newton's identities."""
    if len(traces) < n:
        raise ValueError("need traces of powers 1..n")
    e: list[Scalar] = [1]
    for k in range(1, n + 1):
        acc = sum((-1) ** (i - 1) * e[k - i] * traces[i - 1] for i in range(1, k + 1))
        e.append(normalize_scalar(Fraction(acc, k)))
    cp = [0] * (n + 1)
    for k in range(n + 1):
        cp[n - k] = normalize_scalar((-1) ** k * e[k])
    return tuple(cp)


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


# ---------------------------------------------------------------------------
# truncated bigraded series
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=True)
class BigradedSeries:
    """Sparse bigraded series with exact coefficients.

    Keys are (exterior degree a, polynomial degree b); only keys with
    a + 2b <= truncation are stored, and zero coefficients are dropped.
    Well-formed invariant-ring series have non-negative integer
    coefficients; intermediate arithmetic may hold Fractions.
    """

    truncation: int
    coefficients: Mapping[tuple[int, int], Scalar] = field(default_factory=dict)

    def __post_init__(self):
        if self.truncation < 0:
            raise ValueError("truncation must be non-negative")
        cleaned = {}
        for (a, b), c in self.coefficients.items():
            if a < 0 or b < 0:
                raise ValueError(f"negative bidegree {(a, b)}")
            c = normalize_scalar(c)
            if c != 0 and a + 2 * b <= self.truncation:
                cleaned[(a, b)] = c
        object.__setattr__(self, "coefficients", cleaned)

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        return self.coefficients.get(key, 0)


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


def collapse_to_cohomological(s: BigradedSeries) -> tuple[int, ...]:
    """Single grading: coefficient of u^n is the sum of (a, b) slots with
    a + 2b = n.  Requires the series to have integer coefficients."""
    out = [0] * (s.truncation + 1)
    for (a, b), c in s.coefficients.items():
        if not isinstance(c, int):
            raise ValueError(f"non-integer coefficient {c} at {(a, b)}")
        out[a + 2 * b] += c
    return tuple(out)


# ---------------------------------------------------------------------------
# univariate helpers for single-graded (u) series, stored as coefficient lists
# ---------------------------------------------------------------------------

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


def product_over_degrees(degrees: Iterable[int], truncation: int) -> tuple[int, ...]:
    """Coefficients of prod_d (1 + u^(2d-1)) / (1 - u^(2d)) up to truncation.

    This is the single-graded closed form of the invariant ring attached to
    a degree multiset: one odd generator in degree 2d-1 and one polynomial
    generator in degree 2d per entry.
    """
    num: list[Scalar] = [1]
    den: list[Scalar] = [1]
    for d in degrees:
        f = [0] * (2 * d)
        f[0] = 1
        if 2 * d - 1 <= truncation:
            f[2 * d - 1] = 1
        num = poly_mul_trunc(num, f, truncation)
        g = [0] * (2 * d + 1)
        g[0] = 1
        g[2 * d] = -1
        den = poly_mul_trunc(den, g, truncation)
    inv = poly_inverse_series(den, truncation)
    out = poly_mul_trunc(num, inv, truncation)
    if any(not isinstance(c, int) for c in out):
        raise ValueError("closed-form product should have integer coefficients")
    return tuple(out)  # type: ignore[return-value]
