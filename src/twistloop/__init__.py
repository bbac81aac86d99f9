"""Exact invariant-theory engine for the cohomology of classifying spaces
of twisted loop groups of compact simple Lie groups."""

from .exact import BigradedSeries, DEFAULT_TRUNCATION, product_over_degrees, solomon_series
from .report import (ClosedForm, TwistReport, TwistSpec, compute,
                     excluded_characteristics)
from .rootsys import CartanType, degrees, root_count, weyl_order
from .weyl import GroupTooLargeError, coset_indices

__all__ = [
    "BigradedSeries", "CartanType", "ClosedForm", "DEFAULT_TRUNCATION",
    "GroupTooLargeError", "TwistReport", "TwistSpec", "compute", "coset_indices",
    "degrees", "excluded_characteristics", "product_over_degrees", "root_count",
    "solomon_series", "weyl_order",
]

# the references' names, resolved in twistloop.oracle, which loads on first use;
# they stay out of __all__, so a star import loads no reference
_ORACLE_NAMES = {"DiagramAutomorphism", "FoldingResult", "RootSystem", "build_root_system",
                 "folded_root_system", "make_automorphism", "project_roots", "steinberg_rows"}


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
