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
    ties broken by total cost so cheaper plans win).
    """
    if lambda_ < 0:
        raise EssError("anorexic λ must be non-negative")
    cache = diagram.cache
    if cache is None:
        raise EssError("diagram lacks a PlanCostCache; cannot reduce")
    space = diagram.space
    if locations is None:
        location_list = list(space.locations())
        flat = slice(None)
    else:
        location_list = list(locations)
        if not location_list:
            raise EssError("no locations to reduce")
        # Row-major position of every location, computed once and shared
        # by the optimal-cost gather and each candidate's.
        flat = np.ravel_multi_index(np.asarray(location_list).T, space.shape)
    if candidate_ids is None:
        candidate_ids = diagram.posp_plan_ids

    threshold = 1.0 + lambda_
    optimal = diagram.costs.ravel()[flat]
    arrays = cache.cost_arrays(candidate_ids)
    # coverage[p][i] == True when plan p may own location_list[i].
    coverage: Dict[int, np.ndarray] = {}
    cost_rows: Dict[int, np.ndarray] = {}
    for plan_id in candidate_ids:
        costs = arrays[plan_id].ravel()[flat]
        coverage[plan_id] = costs <= threshold * optimal + 1e-12
        cost_rows[plan_id] = costs

    tracer = cache.optimizer.tracer
    span = tracer.span(
        "ess.reduce",
        lambda_=lambda_,
        locations=len(location_list),
        candidates=len(candidate_ids),
    )
    uncovered = np.ones(len(location_list), dtype=bool)
    owner = np.zeros(len(location_list), dtype=np.int64)
    chosen: List[int] = []
    while uncovered.any():
        best_plan = None
        best_gain = -1
        best_cost = np.inf
        for plan_id in candidate_ids:
            if plan_id in chosen:
                continue
            covered = coverage[plan_id] & uncovered
            gain = int(covered.sum())
            if gain == 0:
                continue
            total_cost = float(cost_rows[plan_id][covered].sum())
            if gain > best_gain or (gain == best_gain and total_cost < best_cost):
                best_plan, best_gain, best_cost = plan_id, gain, total_cost
        if best_plan is None:
            # Shouldn't happen: the optimal plan always covers its own
            # locations.  Guard against numerical corner cases anyway.
            idx = int(np.argmax(uncovered))
            fallback = diagram.plan_at(location_list[idx])
            owner[idx] = fallback
            if fallback not in chosen:
                chosen.append(fallback)
            uncovered[idx] = False
            continue
        chosen.append(best_plan)
        newly = coverage[best_plan] & uncovered
        if tracer.enabled:
            tracer.event("ess.swallow", plan=best_plan, swallowed=int(newly.sum()))
        owner[newly] = best_plan
        uncovered &= ~newly
    assignment = dict(zip(location_list, owner.tolist()))
    surviving = sorted(set(assignment.values()))
    span.set(surviving=len(surviving), passes=len(chosen))
    span.end()
    return ReducedAssignment(
        assignment=assignment, plan_ids=surviving, lambda_=lambda_
    )
