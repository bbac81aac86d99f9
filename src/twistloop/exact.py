"""Exact integer vectors and matrices, and truncated bigraded power
series with Solomon's product over a degree multiset.

The pipeline's scalars are Python ints: root coordinates, Gram and
Cartan matrices, fixed-subspace rows, Jacobian residues and series
coefficients.  A division that must come out exact (a Cartan entry) is
a divmod whose remainder is checked, so this package never imports
``fractions``; the references in :mod:`twistloop.oracle`
hold ``fractions.Fraction`` values, which :func:`normalize_scalar`,
:func:`mat_mul` and :class:`BigradedSeries` also accept.  Vectors and
matrices are immutable tuples, so every value is hashable and can be used
directly as a dictionary key.  No operation in this package ever touches
floating point.

A :class:`Record` is an immutable value with named fields, the base of
every record the pipeline passes between its stages (this series, the
Cartan type, the twist and its folding, the spec and the report).  A
subclass lists its fields in ``__slots__``, in constructor order, with
defaults in ``_defaults`` and validation in ``_check``; the base binds
positional and keyword arguments to the fields, compares, hashes and
prints by them, and refuses assignment and deletion.  It stands in for
``dataclasses``, whose import (it loads ``inspect``, ``ast`` and
``tokenize``) and per-class code generation cost more start-up time than
the smaller cases of the pipeline take to run.

A :class:`BigradedSeries` records the dimensions of the graded pieces of
an (exterior algebra) x (polynomial algebra) as a sparse map

    (exterior degree a, polynomial degree b) -> coefficient

truncated at cohomological degree a + 2b <= truncation.  The exterior
part contributes degree a, the polynomial part degree 2b.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from operator import attrgetter

Scalar = int  # the oracle's references also pass fractions.Fraction values
Vector = tuple[Scalar, ...]
Matrix = tuple[tuple[Scalar, ...], ...]

DEFAULT_TRUNCATION = 50


class Record:
    """Immutable record over the fields named in a subclass's ``__slots__``.

    ``Sub(*args, **kwargs)`` binds arguments to fields as a function with
    those parameters would, takes ``_defaults`` for the rest, then calls
    ``_check``, which may normalize a field with ``object.__setattr__``.
    Equality, hashing and repr use the fields in order, except those the
    class statement names in ``hidden``: ``class R(Record, hidden=("x",))``.
    The compared values are kept as one tuple, so == and hash() read two
    slots instead of every field.
    """

    __slots__ = ("_key",)
    _defaults: dict = {}

    def __init_subclass__(cls, hidden=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._compared = tuple(n for n in cls.__slots__ if n not in hidden)
        cls._values = attrgetter(*cls._compared)

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} arguments, "
                            f"got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{type(self).__name__}() got an unexpected or "
                                f"repeated argument {name!r}")
            values[name] = value
        defaults = self._defaults
        for name in names:
            if name in values:
                value = values[name]
            elif name in defaults:
                value = defaults[name]
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        self._check()
        object.__setattr__(self, "_key", self._values(self))

    def _check(self) -> None:
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._compared)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__slots__)


def check_int(name: str, value) -> None:
    """Raise ValueError naming the field unless value is an int (a bool,
    though an int subclass, is refused)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def normalize_scalar(x: Scalar) -> Scalar:
    """Collapse integral Fractions to plain int (faster arithmetic
    downstream).  An int, the pipeline's only scalar, is tested first; a
    Fraction is known by its denominator, without importing fractions."""
    if type(x) is int or isinstance(x, int):
        return x
    if getattr(x, "denominator", None) == 1:
        return int(x)
    return x


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product; raises ValueError on a dimension mismatch."""
    ra, ca = len(a), len(a[0]) if a else 0
    rb, cb = len(b), len(b[0]) if b else 0
    if ca != rb:
        raise ValueError(f"dimension mismatch: {ra}x{ca} times {rb}x{cb}")
    bt = tuple(zip(*b))
    return tuple(tuple(normalize_scalar(sum(x * y for x, y in zip(row, col))) for col in bt)
                 for row in a)


# ---------------------------------------------------------------------------
# truncated bigraded series
# ---------------------------------------------------------------------------

class BigradedSeries(Record):
    """Sparse bigraded series with exact coefficients.

    Keys are (exterior degree a, polynomial degree b); only keys with
    a + 2b <= truncation are stored, and zero coefficients are dropped.
    Well-formed invariant-ring series have non-negative integer
    coefficients; the oracle's intermediate arithmetic may hold Fractions.
    """

    __slots__ = ("truncation", "coefficients")
    truncation: int
    coefficients: Mapping[tuple[int, int], Scalar]
    _defaults = {"coefficients": {}}  # never mutated: _check stores a new dict

    def _check(self):
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


# ---------------------------------------------------------------------------
# Solomon's product over a degree multiset, as strided integer updates
# ---------------------------------------------------------------------------

def solomon_series(degrees: Sequence[int], truncation: int) -> BigradedSeries:
    """Expansion of prod_d (1 + s t^(d-1)) / (1 - t^d), truncated at
    a + 2b <= truncation.

    By Solomon (Invariants of finite reflection groups, 1963) this is the
    bigraded invariant series of a reflection group whose invariant ring
    is polynomial in the given degrees.  Row a holds the coefficients of
    s^a; a factor (1 + s t^(d-1)) adds row a, shifted by d - 1, into row
    a + 1 (rows taken from the top down), and 1/(1 - t^d) is a running
    sum with stride d along each row.  Every step is an integer update,
    O(rank * truncation) per factor.
    """
    if truncation < 0:
        raise ValueError("truncation must be non-negative")
    width = truncation // 2 + 1
    rows = [[1] + [0] * (width - 1)] + [[0] * width for _ in degrees]
    for k, d in enumerate(degrees):
        for a in range(k, -1, -1):
            src, dst = rows[a], rows[a + 1]
            for b in range(width - d + 1):
                dst[b + d - 1] += src[b]
    for d in degrees:
        for row in rows:
            for b in range(d, width):
                row[b] += row[b - d]
    return BigradedSeries(truncation, {(a, b): c for a, row in enumerate(rows)
                                       for b, c in enumerate(row) if c})


def product_over_degrees(degrees: Iterable[int], truncation: int) -> tuple[int, ...]:
    """Coefficients of prod_d (1 + u^(2d-1)) / (1 - u^(2d)) up to truncation.

    This is the single-graded closed form of the invariant ring attached to
    a degree multiset: one odd generator in degree 2d-1 and one polynomial
    generator in degree 2d per entry, and the series a report emits, over
    the certified degrees.  It equals the collapse of
    :func:`solomon_series` over the same degrees, at O(rank) updates per
    term instead of O(rank^2).  Each factor is two strided integer
    updates: the numerator adds the series shifted by 2d - 1, and the
    denominator is a running sum with stride 2d.
    """
    out = [1] + [0] * truncation
    for d in degrees:
        odd, even = 2 * d - 1, 2 * d
        for n in range(truncation, odd - 1, -1):
            out[n] += out[n - odd]
        for n in range(even, truncation + 1):
            out[n] += out[n - even]
    return tuple(out)
