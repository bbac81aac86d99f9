"""Exact invariant-theory engine for the cohomology of classifying spaces
of twisted loop groups of compact simple Lie groups."""

from .exact import (BigradedSeries, DEFAULT_TRUNCATION, dets_from_charpoly,
                    mat_mul, product_over_degrees, rational_function_series)
from .report import (ClosedForm, TwistReport, TwistSpec, compute,
                     excluded_characteristics, recognize_closed_form)
from .rootsys import (CartanType, RootSystem, build_root_system, degrees,
                      root_count, weyl_order)
from .twist import (DiagramAutomorphism, FoldingResult, folded_root_system,
                    make_automorphism, orbit_count_criterion, orbits_on_roots,
                    project_roots, wsigma_preserves_folded)
from .weyl import (GroupTooLargeError, RootPermutationAction,
                   fixed_space_charpoly_buckets, super_molien_from_buckets,
                   wsigma_elements)

__all__ = [
    "BigradedSeries", "CartanType", "ClosedForm", "DiagramAutomorphism",
    "DEFAULT_TRUNCATION", "FoldingResult", "GroupTooLargeError",
    "RootPermutationAction", "RootSystem", "TwistReport",
    "TwistSpec", "build_root_system", "compute",
    "degrees", "dets_from_charpoly", "excluded_characteristics",
    "fixed_space_charpoly_buckets", "folded_root_system",
    "mat_mul", "make_automorphism", "orbit_count_criterion",
    "orbits_on_roots", "product_over_degrees", "project_roots",
    "rational_function_series", "recognize_closed_form", "root_count",
    "super_molien_from_buckets", "weyl_order", "wsigma_elements",
    "wsigma_preserves_folded",
]
