"""Anorexic plan-diagram reduction (Harish et al., VLDB 2007; paper §3.3).

A plan *swallows* another plan's ESS locations if, at each of those
locations, the swallower's cost stays within ``(1 + λ)`` of the optimal
cost.  Greedy set-cover over the candidate plans brings plan cardinality
down to "anorexic levels" (around ten), which is what makes the
multi-dimensional MSO bound ``4·(1+λ)·ρ`` practical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..exceptions import EssError
from ..optimizer.plans import CostContext
from .diagram import PlanDiagram
from .space import Location

#: Default anorexic cost-increase threshold (20%, per the paper).
DEFAULT_LAMBDA = 0.2


@dataclass
class ReducedAssignment:
    """Outcome of an anorexic reduction over a set of locations."""

    #: location -> plan id after swallowing.
    assignment: Dict[Location, int]
    #: The surviving plan set.
    plan_ids: List[int]
    #: λ used.
    lambda_: float

    @property
    def cardinality(self) -> int:
        return len(self.plan_ids)


def anorexic_reduce(
    diagram: PlanDiagram,
    locations: Optional[Iterable[Location]] = None,
    lambda_: float = DEFAULT_LAMBDA,
    candidate_ids: Optional[Sequence[int]] = None,
) -> ReducedAssignment:
    """Greedy swallowing over ``locations`` (default: the whole grid).

    Each location ends up assigned to a plan whose cost there is at most
    ``(1 + λ)`` times the optimal cost; the greedy objective is to use as
    few distinct plans as possible (largest-coverage-first set cover,
    ties broken by total cost so cheaper plans win, the earlier
    candidate on equal cost).

    The candidates are costed at these locations only, in one slab
    context (a sub-tree they share is costed once), so a reduction over
    the contour locations builds no whole-grid cost array and leaves the
    diagram's :class:`PlanCostCache` as it found it.
    """
    if lambda_ < 0:
        raise EssError("anorexic λ must be non-negative")
    cache = diagram.cache
    if cache is None:
        raise EssError("diagram lacks a PlanCostCache; cannot reduce")
    space = diagram.space
    if locations is None:
        location_list = list(space.locations())
        flat = np.arange(space.size)
    else:
        location_list = list(locations)
        if not location_list:
            raise EssError("no locations to reduce")
        flat = np.ravel_multi_index(np.asarray(location_list).T, space.shape)
    if candidate_ids is None:
        candidate_ids = diagram.posp_plan_ids

    optimizer = cache.optimizer
    columns, length = space.slab_columns(flat)
    ctx = CostContext.for_slab(optimizer.schema, optimizer.cost_model, columns)
    plans = [cache.registry.plan(plan_id) for plan_id in candidate_ids]
    # cost[c, i]: candidate c's cost at location_list[i]; coverage[c, i]
    # when it may own that location.
    cost = np.empty((len(plans), length))
    for row, estimate in zip(cost, ctx.estimates(plans)):
        row[:] = estimate.cost
    optimal = diagram.costs.ravel()[flat]
    coverage = cost <= (1.0 + lambda_) * optimal + 1e-12

    tracer = optimizer.tracer
    span = tracer.span(
        "ess.reduce",
        lambda_=lambda_,
        locations=length,
        candidates=len(plans),
    )
    uncovered = np.ones(length, dtype=bool)
    owner = np.zeros(length, dtype=np.int64)
    chosen: List[int] = []
    while uncovered.any():
        # A chosen plan gains nothing from here on: it swallowed all it
        # covers, so it is never offered twice.
        gains = np.count_nonzero(coverage & uncovered, axis=1)
        top = gains.max(initial=0)
        if top == 0:
            # Shouldn't happen: the optimal plan always covers its own
            # locations.  Guard against numerical corner cases anyway.
            idx = int(np.argmax(uncovered))
            fallback = diagram.plan_at(location_list[idx])
            owner[idx] = fallback
            if fallback not in chosen:
                chosen.append(fallback)
            uncovered[idx] = False
            continue
        best, best_cost = -1, np.inf
        for c in np.flatnonzero(gains == top):
            total = float(cost[c][coverage[c] & uncovered].sum())
            if best < 0 or total < best_cost:
                best, best_cost = c, total
        plan_id = int(candidate_ids[best])
        chosen.append(plan_id)
        newly = coverage[best] & uncovered
        if tracer.enabled:
            tracer.event("ess.swallow", plan=plan_id, swallowed=int(top))
        owner[newly] = plan_id
        uncovered &= ~newly
    assignment = dict(zip(location_list, owner.tolist()))
    surviving = sorted(set(assignment.values()))
    span.set(surviving=len(surviving), passes=len(chosen))
    span.end()
    return ReducedAssignment(
        assignment=assignment, plan_ids=surviving, lambda_=lambda_
    )
