"""Cost-based optimizer with selectivity injection."""

from .cost_model import COMMERCIAL_COST_MODEL, POSTGRES_COST_MODEL, CostModel
from .explain import explain
from .serialize import plans_from_table, plans_to_table
from .optimizer import OptimizedPlan, Optimizer, PlanRegistry
from .plans import (
    Aggregate,
    IndexLookup,
    IndexScan,
    Join,
    NodeEstimate,
    PlanNode,
    SeqScan,
    cost_plan,
    error_node_depth,
    first_error_node,
    spilled_cost,
)
from .selectivity import (
    SelectivityAssignment,
    actual_selectivities,
    estimate_selectivities,
    inject,
)

__all__ = [
    "Aggregate",
    "explain",
    "plans_from_table",
    "plans_to_table",
    "COMMERCIAL_COST_MODEL",
    "POSTGRES_COST_MODEL",
    "CostModel",
    "OptimizedPlan",
    "Optimizer",
    "PlanRegistry",
    "IndexLookup",
    "IndexScan",
    "Join",
    "NodeEstimate",
    "PlanNode",
    "SeqScan",
    "cost_plan",
    "error_node_depth",
    "first_error_node",
    "spilled_cost",
    "SelectivityAssignment",
    "actual_selectivities",
    "estimate_selectivities",
    "inject",
]
