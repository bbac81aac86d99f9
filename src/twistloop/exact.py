"""Exact integer records, and truncated power series with Solomon's
product over a degree multiset.

The pipeline's scalars are Python ints: root coordinates, Cartan
matrices, fixed-subspace rows, Jacobian residues and series
coefficients.  This package never imports ``fractions``; only the
references in :mod:`twistloop.oracle` hold ``fractions.Fraction``
values, and a :class:`BigradedSeries` refuses them.  Vectors are
immutable tuples, so every value is hashable and can be used directly as
a dictionary key.  No operation in this package ever touches floating
point.

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
part contributes degree a, the polynomial part degree 2b.  Both series
are expanded with one C-level list operation per step, not per entry.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import accumulate
from operator import add, attrgetter

Scalar = int  # the pipeline's only scalar; the oracle declares its own, int | Fraction
Vector = tuple[Scalar, ...]

DEFAULT_TRUNCATION = 50


class Record:
    """Immutable record over the fields named in a subclass's ``__slots__``.

    ``Sub(*args, **kwargs)`` binds arguments to fields as a function with
    those parameters would, takes ``_defaults`` for the rest, then calls
    ``_check``, which may normalize a field with ``object.__setattr__``.
    Equality, hashing and repr use the fields in order.  The compared
    values are kept as one tuple, so == and hash() read two slots instead
    of every field.
    """

    __slots__ = ("_key",)
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls.__slots__)
        # each field's index and its slot's setter, which bypasses __setattr__
        cls._index = {n: i for i, n in enumerate(cls.__slots__)}
        cls._setters = tuple(getattr(cls, n).__set__ for n in cls.__slots__)

    def __init__(self, *args, **kwargs):
        setters, given = self._setters, len(args)
        if given > len(setters):
            raise TypeError(f"{type(self).__name__}() takes {len(setters)} arguments, "
                            f"got {given}")
        for setter, value in zip(setters, args):
            setter(self, value)
        for name, value in kwargs.items():
            i = self._index.get(name, -1)
            if i < given:  # no such field, or one bound by position
                raise TypeError(f"{type(self).__name__}() got an unexpected or "
                                f"repeated argument {name!r}")
            setters[i](self, value)
        if given + len(kwargs) < len(setters):  # some field takes its default
            for name, setter in zip(self.__slots__[given:], setters[given:]):
                if name not in kwargs:
                    if name not in self._defaults:
                        raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
                    setter(self, self._defaults[name])
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
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__slots__)


def check_int(name: str, value) -> None:
    """Raise ValueError naming the field unless value is an int (a bool,
    though an int subclass, is refused)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


# ---------------------------------------------------------------------------
# truncated bigraded series
# ---------------------------------------------------------------------------

class BigradedSeries(Record):
    """Sparse bigraded series with integer coefficients.

    Keys are (exterior degree a, polynomial degree b); only keys with
    a + 2b <= truncation are stored, and zero coefficients are dropped.
    Any coefficient but an int is refused with a ValueError naming its
    bidegree.  Well-formed invariant-ring series have non-negative
    coefficients.
    """

    __slots__ = ("truncation", "coefficients")
    truncation: int
    coefficients: Mapping[tuple[int, int], int]
    _defaults = {"coefficients": {}}  # never mutated: _check stores a new dict

    def _check(self):
        if self.truncation < 0:
            raise ValueError("truncation must be non-negative")
        cleaned = {}
        for (a, b), c in self.coefficients.items():
            if a < 0 or b < 0:
                raise ValueError(f"negative bidegree {(a, b)}")
            if type(c) is not int:
                check_int(f"coefficient at {(a, b)}", c)
            if c != 0 and a + 2 * b <= self.truncation:
                cleaned[(a, b)] = c
        object.__setattr__(self, "coefficients", cleaned)

    def __getitem__(self, key: tuple[int, int]) -> int:
        return self.coefficients.get(key, 0)


# ---------------------------------------------------------------------------
# Solomon's product over a degree multiset, one list operation per step
# ---------------------------------------------------------------------------

def solomon_series(degrees: Sequence[int], truncation: int) -> BigradedSeries:
    """Expansion of prod_d (1 + s t^(d-1)) / (1 - t^d), truncated at
    a + 2b <= truncation.

    By Solomon (Invariants of finite reflection groups, 1963) this is the
    bigraded invariant series of a reflection group whose invariant ring
    is polynomial in the given degrees.  Row a holds the coefficients of
    s^a; a factor (1 + s t^(d-1)) adds row a, shifted by d - 1, into row
    a + 1 (rows taken from the top down), and each row is then divided by
    the denominators (:func:`_divide_out`).
    """
    if truncation < 0:
        raise ValueError("truncation must be non-negative")
    width = truncation // 2 + 1
    rows = [[1] + [0] * (width - 1)] + [[0] * width for _ in degrees]
    for k, d in enumerate(degrees):
        for a in range(k, -1, -1):
            rows[a + 1][d - 1:] = map(add, rows[a + 1][d - 1:], rows[a])
    return BigradedSeries(truncation, {(a, b): c for a, row in enumerate(rows)
                                       for b, c in enumerate(_divide_out(row, degrees)) if c})


def product_over_degrees(degrees: Iterable[int], truncation: int) -> tuple[int, ...]:
    """Coefficients of prod_d (1 + u^(2d-1)) / (1 - u^(2d)) up to truncation.

    This is the single-graded closed form of the invariant ring attached to
    a degree multiset: one odd generator in degree 2d-1 and one polynomial
    generator in degree 2d per entry, and the series a report emits, over
    the certified degrees, and the collapse of :func:`solomon_series`.
    The denominators have even exponents only, so they are divided out on
    the even degrees alone (:func:`_divide_out`).  Each numerator factor
    1 + u^a then adds the series, shifted by a, onto itself: a slice
    assignment reads the whole ``map`` before it writes.
    """
    degrees = tuple(degrees)
    out = [0] * (truncation + 1)
    out[::2] = _divide_out([1] + [0] * (truncation // 2), degrees)
    for d in degrees:
        out[2 * d - 1:] = map(add, out[2 * d - 1:], out)
    return tuple(out)


def _divide_out(series: list[int], degrees: Sequence[int]) -> list[int]:
    """series / prod_d (1 - v^d), in place, to its length n.  1 / (1 - v^d)
    is a running sum with stride d: one ``accumulate`` over each residue
    class mod d, or, once d^2 passes n and the classes are shorter than d,
    one ``map(add)`` per block of d entries onto the block before it."""
    n = len(series)
    for d in degrees:
        if d * d <= n:
            for r in range(d):
                series[r::d] = accumulate(series[r::d])
        else:
            for b in range(d, n, d):
                series[b:b + d] = map(add, series[b:b + d], series[b - d:b])
    return series
