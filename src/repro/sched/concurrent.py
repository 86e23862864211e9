"""Concurrent crossing — all surviving contour plans at once.

Every surviving plan of the contour is launched on a worker pool, each
under the full contour budget and carrying a
:class:`~repro.sched.cancellation.CancellationToken`.  The moment one
worker completes within budget, every other token is capped at the
winner's completion cost — cooperative cancellation through the
executor's budget checkpoints.

Accounting is done in **cost-time**, deterministically, after all
workers return: with one plan per core all workers progress at the same
rate, so the contour's elapsed is the *cheapest* completion cost (or the
budget when nobody completed) and each straggler is charged
``min(own spent, elapsed)``.  This keeps the ledger identical across
runs even though thread completion order is not, and it is exactly the
model under which multi-D MSO collapses from ``4*(1+lambda)*rho`` to
``4*(1+lambda)``: per contour, elapsed <= one budget instead of rho
budgets.

Learned selectivity lower bounds from *every* worker — winner and
cancelled stragglers alike — are surfaced so the driver can merge them
into ``q_run`` (first-quadrant invariant) before climbing.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, as_completed
from typing import Dict, Optional

from ..core.runtime import ExecutionOutcome, ExecutionRecord
from .cancellation import CancellationToken
from .strategy import (
    CrossingRequest,
    CrossingResult,
    CrossingStrategy,
)

#: Tolerance for cost-time comparisons.
_EPS = 1e-9


class ConcurrentCrossing(CrossingStrategy):
    name = "concurrent"

    def __init__(self, max_workers: Optional[int] = None):
        """``max_workers`` caps the pool (default: one worker per plan,
        the paper's one-plan-per-core reading)."""
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers

    def cross(self, request: CrossingRequest) -> CrossingResult:
        plans = list(request.plan_ids)
        tokens = {pid: CancellationToken() for pid in plans}
        outcomes = self._launch(request, plans, tokens)

        # Deterministic cost-time accounting (independent of thread order).
        completions = sorted(
            (outcomes[pid].cost_spent, pid)
            for pid in plans
            if outcomes[pid].completed
        )
        if completions:
            elapsed, winner = completions[0]
        else:
            elapsed, winner = request.budget, None

        result = CrossingResult()
        tracer = request.tracer
        cancellations = 0
        for pid in plans:
            outcome = outcomes[pid]
            is_winner = pid == winner
            charged = (
                outcome.cost_spent if is_winner else min(outcome.cost_spent, elapsed)
            )
            # A straggler whose run charged more than the contour's
            # cost-time was cut off mid-flight by the winner.
            cancelled = not is_winner and outcome.cost_spent > charged + _EPS
            if cancelled:
                cancellations += 1
            request.ledger.charge(
                pid, charged, completed=is_winner, cancelled=cancelled
            )
            result.records.append(
                ExecutionRecord(
                    contour_index=request.contour_index,
                    plan_id=pid,
                    spilled=False,
                    budget=request.budget,
                    cost_spent=charged,
                    completed=is_winner,
                    learned=tuple(outcome.learned),
                )
            )
            result.learned.extend(outcome.learned)
            if is_winner:
                result.winner_plan_id = pid
                result.winner_outcome = outcome
        request.ledger.set_elapsed(min(elapsed, request.ledger.work))
        if tracer.enabled:
            tracer.count("sched.workers", len(plans))
            if cancellations:
                tracer.count("sched.cancellations", cancellations)
        return result

    # ------------------------------------------------------------------

    def _launch(
        self,
        request: CrossingRequest,
        plans,
        tokens: Dict[int, CancellationToken],
    ) -> Dict[int, ExecutionOutcome]:
        """Run every plan, cancelling stragglers as soon as one completes."""
        if len(plans) == 1:
            pid = plans[0]
            return {pid: request.service.run_full(pid, request.budget, cancel=tokens[pid])}
        outcomes: Dict[int, ExecutionOutcome] = {}
        workers = min(len(plans), self.max_workers or len(plans))
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="sched-cross"
        ) as pool:
            futures = {
                pool.submit(
                    request.service.run_full, pid, request.budget, cancel=tokens[pid]
                ): pid
                for pid in plans
            }
            for future in as_completed(futures):
                pid = futures[future]
                outcome = future.result()
                outcomes[pid] = outcome
                if outcome.completed:
                    for other, token in tokens.items():
                        if other != pid:
                            token.cancel_at(outcome.cost_spent)
        return outcomes
