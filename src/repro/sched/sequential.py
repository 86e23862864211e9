"""Sequential crossing — the paper's Figure 7 loop, as a strategy.

Plans run one after another under the contour budget; the first
completion wins.  Elapsed cost-time equals total work (one core).  This
is the reference semantics every other strategy is measured against, and
the default the legacy surface keeps.
"""

from __future__ import annotations

from ..core.runtime import ExecutionRecord
from .strategy import (
    CrossingRequest,
    CrossingResult,
    CrossingStrategy,
)


class SequentialCrossing(CrossingStrategy):
    name = "sequential"

    def cross(self, request: CrossingRequest) -> CrossingResult:
        result = CrossingResult()
        ledger = request.ledger
        for plan_id in request.plan_ids:
            outcome = request.service.run_full(plan_id, request.budget)
            ledger.charge(plan_id, outcome.cost_spent, completed=outcome.completed)
            result.records.append(
                ExecutionRecord(
                    contour_index=request.contour_index,
                    plan_id=plan_id,
                    spilled=False,
                    budget=request.budget,
                    cost_spent=outcome.cost_spent,
                    completed=outcome.completed,
                    learned=tuple(outcome.learned),
                )
            )
            result.learned.extend(outcome.learned)
            if outcome.completed:
                result.winner_plan_id = plan_id
                result.winner_outcome = outcome
                break
        ledger.set_elapsed(ledger.work)
        return result
