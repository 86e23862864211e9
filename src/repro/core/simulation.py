"""ESS-wide simulation of bouquet executions.

The robustness metrics (MSO/ASO/MaxHarm) need the bouquet's total
execution cost at *every* possible actual location ``qa``.  For the basic
algorithm this cost field is computed fully vectorized; the optimized
algorithm runs the vectorized sweep engine in :mod:`repro.sweep`, which
advances every location as one row of an array state, asking the same
decision functions as the runner.  :func:`simulate_at` — one
:class:`~repro.core.runtime.BouquetRunner` run at one location, from the
ESS origin — is what the engine is tested against, with the literal
scalar Figure 13 of the tests
(``tests/sweep/test_sweep_engine.py::TestFieldEquality``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from ..ess.space import Location
from ..exceptions import BouquetError
from ..optimizer.plans import CostContext
from .bouquet import PlanBouquet
from .runtime import (
    AbstractExecutionService,
    BouquetRunResult,
    BouquetRunner,
)


def simulate_at(
    bouquet: PlanBouquet,
    qa_location: Location,
    mode: str = "optimized",
) -> BouquetRunResult:
    """Simulate one bouquet execution for a query actually located at
    ``qa_location`` (a grid index), in the cost-model world."""
    qa_values = bouquet.space.selectivities_at(qa_location)
    service = AbstractExecutionService(bouquet, qa_values)
    runner = BouquetRunner(bouquet, service, mode=mode)
    result = runner.run()
    if not result.completed:
        raise BouquetError(
            f"bouquet failed to complete at {qa_location} — contour coverage bug"
        )
    return result


def basic_cost_field(bouquet: PlanBouquet) -> np.ndarray:
    """Total basic-bouquet cost at every grid location, vectorized.

    Mirrors Figure 7 exactly: per contour, resident plans run in plan-id
    order under the (λ-inflated) budget; a failed attempt costs the full
    budget, a completing one costs its true cost.  Costs are taken where
    the run-time driver takes them — every grid value clamped into its
    dimension's ``[lo, hi]``, which a grid's end points can miss by an
    ulp — and summed in its order, so each total is :func:`simulate_at`'s
    ``mode="basic"`` total bit for bit.
    """
    space = bouquet.space
    optimizer = bouquet.cost_cache.optimizer
    assignment: Dict[str, object] = dict(space.base_assignment)
    axes = np.meshgrid(*space.grids, indexing="ij", sparse=True)
    for dim, axis in zip(space.dimensions, axes):
        assignment[dim.pid] = np.clip(axis, dim.lo, dim.hi)
    ctx = CostContext(optimizer.schema, optimizer.cost_model, assignment)
    plans = [bouquet.registry.plan(plan_id) for plan_id in bouquet.plan_ids]
    shape = space.shape
    fields = {
        plan_id: np.broadcast_to(estimate.cost, shape)
        for plan_id, estimate in zip(bouquet.plan_ids, ctx.estimates(plans))
    }
    total = np.zeros(shape, dtype=float)
    done = np.zeros(shape, dtype=bool)
    for contour, budget in zip(bouquet.contours, bouquet.budgets):
        for plan_id in contour.plan_ids:
            if done.all():
                break
            costs = fields[plan_id]
            completes = (~done) & (costs <= budget)
            total[completes] += costs[completes]
            running = ~done & ~completes
            total[running] += budget
            done |= completes
        if done.all():
            break
    if not done.all():
        raise BouquetError("basic bouquet did not terminate everywhere")
    return total


def optimized_cost_field(
    bouquet: PlanBouquet,
    locations: Optional[Iterable[Location]] = None,
) -> Dict[Location, float]:
    """Optimized-bouquet total cost per location (dict-shaped; the grid-
    shaped counterpart is :func:`repro.robustness.metrics.optimized_field`).

    ``locations`` defaults to the whole grid; pass a sample for very
    large spaces.  Computed by the vectorized sweep engine in
    :mod:`repro.sweep` and memoized on the bouquet.
    """
    # Imported lazily: repro.sweep itself imports repro.core (the
    # decision functions it shares with the runner).
    from ..sweep import SweepEngine

    return SweepEngine(bouquet).field_dict(locations)


def sample_locations(
    space, count: int, seed: int = 0
) -> List[Location]:
    """Deterministic uniform sample of grid locations (without replacement
    when the grid is small enough)."""
    rng = np.random.default_rng(seed)
    size = space.size
    if count >= size:
        return list(space.locations())
    flat = rng.choice(size, size=count, replace=False)
    return [tuple(int(i) for i in np.unravel_index(f, space.shape)) for f in flat]
