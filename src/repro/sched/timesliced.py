"""Time-sliced crossing — deterministic round-robin over cost quanta.

The contour budget is divided into ``quanta`` equal simulated-cost
slices.  In each round every surviving plan (ascending id) advances to
the round's cumulative allowance; the first plan to complete during its
slice wins and the round stops — the remaining plans are never touched
again on this contour.

The ledger is charged the **marginal** progress of each slice
(``spent_now - spent_before``), modelling a resumable single-core
scheduler; against the real engine each slice re-runs the plan from
scratch (documented restart overhead), but the account — and therefore
every number a test or bench reads — is a pure function of plan costs
and the quantum count.  Elapsed equals work: this is single-core
semantics, kept bit-reproducible for tests while still bounding how long
one expensive plan can starve the others.
"""

from __future__ import annotations

from typing import Dict

from ..core.runtime import ExecutionRecord
from .strategy import (
    CrossingRequest,
    CrossingResult,
    CrossingStrategy,
)


class TimeSlicedCrossing(CrossingStrategy):
    name = "timesliced"

    def __init__(self, quanta: int = 4):
        if quanta < 1:
            raise ValueError("quanta must be positive")
        self.quanta = int(quanta)

    def cross(self, request: CrossingRequest) -> CrossingResult:
        plans = list(request.plan_ids)
        progress: Dict[int, float] = {pid: 0.0 for pid in plans}
        completed: Dict[int, bool] = {pid: False for pid in plans}
        result = CrossingResult()
        slices = 0
        for step in range(1, self.quanta + 1):
            # The final round lands exactly on the budget, eps-free.
            allowed = (
                request.budget
                if step == self.quanta
                else request.budget * step / self.quanta
            )
            for pid in plans:
                outcome = request.service.run_full(pid, allowed)
                marginal = max(0.0, outcome.cost_spent - progress[pid])
                progress[pid] = max(progress[pid], outcome.cost_spent)
                completed[pid] = outcome.completed
                request.ledger.charge(pid, marginal, completed=outcome.completed)
                slices += 1
                result.learned.extend(outcome.learned)
                if outcome.completed:
                    result.winner_plan_id = pid
                    result.winner_outcome = outcome
                    break
            if result.winner_plan_id is not None:
                break
        for pid in plans:
            if progress[pid] <= 0.0 and not completed[pid]:
                continue  # never reached before the winner finished
            result.records.append(
                ExecutionRecord(
                    contour_index=request.contour_index,
                    plan_id=pid,
                    spilled=False,
                    budget=request.budget,
                    cost_spent=progress[pid],
                    completed=completed[pid],
                )
            )
        request.ledger.set_elapsed(request.ledger.work)
        if request.tracer.enabled:
            request.tracer.count("sched.quanta", slices)
        return result
