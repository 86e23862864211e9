"""NAT — the native optimizer baseline.

NAT optimizes once at the estimated location ``qe`` and executes that
plan at the actual location ``qa``.  Its robustness profile over the ESS
derives directly from the plan diagram: every POSP plan is the choice at
some qe, so the worst case at qa maximizes over the POSP cost fields.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.runtime import BouquetRunResult, ExecutionRecord
from ..datagen.database import Database
from ..ess.diagram import PlanDiagram
from ..ess.space import Location
from ..exceptions import EssError
from ..obs.tracer import NULL_TRACER, Tracer
from ..optimizer.optimizer import Optimizer
from ..query.query import Query
from .metrics import StrategyProfile, aso, mso, subopt_worst_field


def native_run(
    optimizer: Optimizer,
    query: Query,
    database: Database,
    tracer: Optional[Tracer] = None,
) -> BouquetRunResult:
    """Execute ``query`` the NAT way: one optimizer call at the estimated
    location, one unbounded execution of the chosen plan.

    This is the serving layer's degradation path — when bouquet
    compilation fails or exceeds its deadline, the request still gets an
    answer, just without the MSO guarantee.  The result is reported in
    the same :class:`~repro.core.runtime.BouquetRunResult` shape as a
    bouquet run (a single full, non-spilled execution record with
    ``contour_index=-1``).
    """
    from ..executor.engine import ExecutionEngine

    tracer = tracer if tracer is not None else NULL_TRACER
    with tracer.span("nat.run", query=query.name):
        chosen = optimizer.optimize(query)
        engine = ExecutionEngine(
            database, cost_model=optimizer.cost_model, tracer=tracer
        )
        result = engine.execute(query, chosen.plan)
    record = ExecutionRecord(
        contour_index=-1,
        plan_id=chosen.plan_id,
        spilled=False,
        budget=float("inf"),
        cost_spent=result.spent,
        completed=result.completed,
    )
    return BouquetRunResult(
        total_cost=result.spent,
        executions=[record],
        final_plan_id=chosen.plan_id,
        completed=result.completed,
        result_rows=result.rows if result.completed else None,
    )


class NativeOptimizerStrategy:
    """Per-instance NAT behaviour: plan choice at qe, cost paid at qa."""

    def __init__(self, diagram: PlanDiagram):
        self.diagram = diagram
        if diagram.cache is None:
            raise EssError("diagram lacks a cost cache")
        occupancy = diagram.occupancy()
        self._profile = StrategyProfile(
            cost_fields=diagram.cache.cost_arrays(occupancy),
            occupancy=occupancy,
            pic=diagram.costs,
        )

    def plan_for_estimate(self, qe: Location) -> int:
        return self.diagram.plan_at(qe)

    def cost(self, qe: Location, qa: Location) -> float:
        """Cost NAT pays when it estimates qe but the truth is qa."""
        plan_id = self.plan_for_estimate(qe)
        return self.diagram.cache.cost(plan_id, qa)

    def subopt_worst(self) -> np.ndarray:
        return subopt_worst_field(self._profile)

    def mso(self) -> float:
        return mso(self._profile)

    def aso(self) -> float:
        return aso(self._profile)

    @property
    def plan_cardinality(self) -> int:
        """Number of distinct plans NAT may execute (POSP cardinality)."""
        return len(self.diagram.posp_plan_ids)
