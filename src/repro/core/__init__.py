"""The paper's contribution: plan bouquets, contours, runtime, bounds."""

from .advisor import ProcessingMode, Recommendation, recommend_processing_mode
from .bouquet import PlanBouquet, identify_bouquet
from .validation import ValidationIssue, ValidationReport, validate_bouquet
from .bounds import (
    best_achievable_mso,
    geometric_budgets,
    mso_bound_1d,
    mso_bound_multid,
    mso_bound_with_model_error,
    worst_case_suboptimality,
)
from .contours import (
    OPTIMAL_RATIO,
    Contour,
    build_contours,
    contour_costs,
    densest_contour_plans,
    maximal_region_frontier,
)
from .runtime import (
    AbstractExecutionService,
    BouquetRunResult,
    BouquetRunner,
    ExecutionOutcome,
    ExecutionRecord,
    ExecutionService,
    KnownSelectivities,
    LearnedSelectivity,
)
from .simulation import (
    basic_cost_field,
    optimized_cost_field,
    sample_locations,
    simulate_at,
)

__all__ = [
    "ProcessingMode",
    "Recommendation",
    "recommend_processing_mode",
    "ValidationIssue",
    "ValidationReport",
    "validate_bouquet",
    "PlanBouquet",
    "identify_bouquet",
    "best_achievable_mso",
    "geometric_budgets",
    "mso_bound_1d",
    "mso_bound_multid",
    "mso_bound_with_model_error",
    "worst_case_suboptimality",
    "OPTIMAL_RATIO",
    "Contour",
    "build_contours",
    "contour_costs",
    "densest_contour_plans",
    "maximal_region_frontier",
    "AbstractExecutionService",
    "BouquetRunResult",
    "BouquetRunner",
    "ExecutionOutcome",
    "ExecutionRecord",
    "ExecutionService",
    "KnownSelectivities",
    "LearnedSelectivity",
    "basic_cost_field",
    "optimized_cost_field",
    "sample_locations",
    "simulate_at",
]
