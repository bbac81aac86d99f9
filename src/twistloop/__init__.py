"""Exact invariant-theory engine for the cohomology of classifying spaces
of twisted loop groups of compact simple Lie groups."""

from .exact import (BigradedSeries, DEFAULT_TRUNCATION, mat_mul,
                    product_over_degrees, solomon_series)
from .report import (ClosedForm, TwistReport, TwistSpec, compute,
                     excluded_characteristics)
from .rootsys import (CartanType, RootSystem, build_root_system, degrees,
                      root_count, weyl_order)
from .twist import (DiagramAutomorphism, FoldingResult, folded_root_system,
                    make_automorphism, orbit_count_criterion, orbits_on_roots,
                    project_roots, wsigma_preserves_folded)
from .weyl import GroupTooLargeError, coset_indices, steinberg_rows

__all__ = [
    "BigradedSeries", "CartanType", "ClosedForm", "DiagramAutomorphism",
    "DEFAULT_TRUNCATION", "FoldingResult", "GroupTooLargeError",
    "RootSystem", "TwistReport",
    "TwistSpec", "build_root_system", "compute", "coset_indices",
    "degrees", "excluded_characteristics", "folded_root_system",
    "mat_mul", "make_automorphism",
    "orbit_count_criterion", "orbits_on_roots", "product_over_degrees",
    "project_roots", "root_count",
    "solomon_series", "steinberg_rows", "weyl_order", "wsigma_preserves_folded",
]
