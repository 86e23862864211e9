"""Error-prone selectivity space: grids, plan diagrams, POSP, reduction."""

from .diagram import PlanCostCache, PlanDiagram, coarse_subgrid
from .dimensioning import (
    DimensioningResult,
    SensitivityScore,
    Uncertainty,
    candidate_error_dimensions,
    classify_predicate,
    dimension_query,
    measure_error_sensitivity,
    select_error_dimensions,
    sensitivity_error_dimensions,
)
from .posp import ContourBandResult, contour_focused_posp
from .reduction import DEFAULT_LAMBDA, ReducedAssignment, anorexic_reduce
from .render import render_1d_profile, render_2d_diagram, render_slice
from .space import ErrorDimension, Location, SelectivitySpace

__all__ = [
    "DimensioningResult",
    "SensitivityScore",
    "Uncertainty",
    "candidate_error_dimensions",
    "classify_predicate",
    "dimension_query",
    "measure_error_sensitivity",
    "select_error_dimensions",
    "sensitivity_error_dimensions",
    "PlanCostCache",
    "PlanDiagram",
    "coarse_subgrid",
    "ContourBandResult",
    "contour_focused_posp",
    "DEFAULT_LAMBDA",
    "ReducedAssignment",
    "anorexic_reduce",
    "ErrorDimension",
    "Location",
    "SelectivitySpace",
    "render_1d_profile",
    "render_2d_diagram",
    "render_slice",
]
