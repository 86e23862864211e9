"""Plan diagrams: plan choice and optimal cost over the ESS grid.

A *plan diagram* (Harish et al., VLDB 2007) colours every ESS location
with the optimizer's plan choice there; the associated cost field is the
POSP infimum curve/surface (PIC).  Every compile builds its diagram
exhaustively: every location optimized, as one slab.  The Picasso-style
candidate diagram (cost a harvested plan set everywhere, take the argmin)
is kept only for the frozen ``compile_cold`` ledger replay.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..exceptions import EssError
from ..optimizer.optimizer import Optimizer, PlanRegistry
from ..optimizer.plans import CostContext
from .space import Location, SelectivitySpace


class PlanCostCache:
    """Lazy per-plan cost fields over an ESS grid.

    ``cost(plan_id, location)``, ``cost_array(plan_id)`` and its batch
    form ``cost_arrays(plan_ids)`` evaluate the plan's (abstract) cost
    function at grid locations, memoizing whole arrays per plan — for
    the consumers of whole grids (the sweep's full runs, validation,
    :meth:`PlanDiagram.from_plan_ids`, the NAT/SEER baselines).  A
    compile builds none: the anorexic reduction costs its candidates at
    its own locations only, so a compiled bouquet's cache starts empty.

    The cache is thread-safe (the serving layer shares bouquets across
    threads).  Stale entries can be dropped explicitly with
    :meth:`invalidate`.
    """

    def __init__(
        self,
        space: SelectivitySpace,
        optimizer: Optimizer,
        registry: PlanRegistry,
    ):
        self.space = space
        self.optimizer = optimizer
        self.registry = registry
        self._arrays: Dict[int, np.ndarray] = {}
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._arrays)

    def invalidate(self, plan_id: Optional[int] = None) -> None:
        """Drop the cached array for one plan (or all of them)."""
        with self._lock:
            if plan_id is None:
                self._arrays.clear()
            else:
                self._arrays.pop(plan_id, None)

    def cost_array(self, plan_id: int) -> np.ndarray:
        """Full grid of costs for one plan (shape = space.shape)."""
        return self.cost_arrays([plan_id])[plan_id]

    def cost_arrays(self, plan_ids: Iterable[int]) -> Dict[int, np.ndarray]:
        """Full grids of costs for several plans, keyed by plan id.

        Plans not cached yet are costed in **one** transient context
        whose assignment maps each error pid to its grid axis, shaped to
        broadcast against the others (``SelectivitySpace.grid_columns``):
        the plans' (purely arithmetic, monotone) cost formulas evaluate
        elementwise over the whole ESS, every node over no more axes than
        it depends on, and a sub-tree shared between plans — the slab
        kernel hands out shared objects — is costed once.
        """
        arrays: Dict[int, np.ndarray] = {}
        missing: List[int] = []
        with self._lock:
            for plan_id in plan_ids:
                array = self._arrays.get(plan_id)
                if array is None:
                    missing.append(plan_id)
                else:
                    arrays[plan_id] = array
        if not missing:
            return arrays
        # Built outside the lock: costing is pure and two racing
        # builders produce identical arrays, so losing the race only
        # wastes one build.
        tracer = self.optimizer.tracer
        if tracer.enabled:
            tracer.count("ess.cost_array_builds", len(missing))
        space = self.space
        columns, _ = space.grid_columns(0, space.shape[0])
        ctx = CostContext(self.optimizer.schema, self.optimizer.cost_model, columns)
        plans = [self.registry.plan(plan_id) for plan_id in missing]
        built = {
            plan_id: np.broadcast_to(
                np.asarray(estimate.cost, dtype=float), space.shape
            ).copy()
            for plan_id, estimate in zip(missing, ctx.estimates(plans))
        }
        with self._lock:
            for plan_id, array in built.items():
                # An array a racing builder installed first wins.
                arrays[plan_id] = self._arrays.setdefault(plan_id, array)
        return arrays

    def cost(self, plan_id: int, location: Location) -> float:
        return float(self.cost_array(plan_id)[location])


class PlanDiagram:
    """Plan choice + optimal cost at every ESS grid location."""

    def __init__(
        self,
        space: SelectivitySpace,
        plan_ids: np.ndarray,
        costs: np.ndarray,
        registry: PlanRegistry,
        cache: Optional[PlanCostCache] = None,
    ):
        if plan_ids.shape != space.shape or costs.shape != space.shape:
            raise EssError("diagram arrays do not match the ESS grid shape")
        self.space = space
        self.plan_ids = plan_ids
        self.costs = costs
        self.registry = registry
        self.cache = cache

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def exhaustive(cls, optimizer: Optimizer, space: SelectivitySpace) -> "PlanDiagram":
        """Optimal plan at every grid location.

        The DPsize enumeration runs once for the whole grid as a slab
        (:mod:`repro.batchopt`) whose columns are the grid axes
        (:meth:`SelectivitySpace.grid_columns`), so each DP entry works
        on the cells of the axes its predicates read, and hands back
        arrays — plan ids and costs are those of one
        :meth:`Optimizer.optimize` call per location in row-major order.
        """
        registry = optimizer.registry(space.query)
        with optimizer.tracer.span("ess.exhaustive_diagram", locations=space.size) as span:
            choice, plan_ids = optimizer.optimize_slab(
                space.query, *space.grid_columns(0, space.shape[0])
            )
            plan_ids = plan_ids.reshape(space.shape)
            costs = choice.cost.reshape(space.shape)
            span.set(posp=len(np.unique(plan_ids)))
        cache = PlanCostCache(space, optimizer, registry)
        return cls(space, plan_ids, costs, registry, cache)

    @classmethod
    def from_candidates(
        cls,
        optimizer: Optimizer,
        space: SelectivitySpace,
        seed_locations: Optional[Iterable[Location]] = None,
    ) -> "PlanDiagram":
        """Approximate diagram: optimize at seed locations to harvest
        candidate plans, then cost every candidate everywhere and argmin.

        Ledger-only: no compile calls it; the frozen ``compile_cold``
        replay imports it behind ``api.EXHAUSTIVE_LIMIT``, a branch its
        grids (3,125 cells at most) never take.

        With seeds on a coarse subgrid this is a standard Picasso-style
        approximation; it converges to the exhaustive diagram as seeds
        densify, and is exact wherever a seed sits.  All seeds are
        optimized by one slab enumeration.
        """
        if seed_locations is None:
            seed_locations = coarse_subgrid(space, per_dim=4)
        with optimizer.tracer.span(
            "ess.candidate_diagram", locations=space.size
        ) as span:
            assignments = [
                space.assignment_at(location) for location in seed_locations
            ]
            candidate_ids = {
                result.plan_id
                for result in optimizer.optimize_batch(space.query, assignments)
            }
            span.set(seeds=len(assignments), candidates=len(candidate_ids))
        return cls.from_plan_ids(optimizer, space, candidate_ids)

    @classmethod
    def from_plan_ids(
        cls,
        optimizer: Optimizer,
        space: SelectivitySpace,
        candidate_ids: Iterable[int],
    ) -> "PlanDiagram":
        """Argmin diagram over an explicit set of registered plan ids:
        cost every candidate everywhere, keep the cheapest per location
        (the lowest plan id on ties)."""
        ordered = sorted(candidate_ids)
        if not ordered:
            raise EssError("a candidate diagram needs at least one plan")
        registry = optimizer.registry(space.query)
        cache = PlanCostCache(space, optimizer, registry)
        arrays = cache.cost_arrays(ordered)
        stacked = np.stack([arrays[pid] for pid in ordered])
        plan_ids = np.array(ordered, dtype=np.int64)[np.argmin(stacked, axis=0)]
        return cls(space, plan_ids, np.min(stacked, axis=0), registry, cache)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def posp_plan_ids(self) -> List[int]:
        """Distinct plan ids appearing in the diagram (the POSP set)."""
        return sorted(int(p) for p in np.unique(self.plan_ids))

    def plan_at(self, location: Location) -> int:
        return int(self.plan_ids[location])

    def cost_at(self, location: Location) -> float:
        return float(self.costs[location])

    def occupancy(self) -> Dict[int, int]:
        """Number of grid locations owned by each plan."""
        ids, counts = np.unique(self.plan_ids, return_counts=True)
        return {int(i): int(c) for i, c in zip(ids, counts)}

    @property
    def cmin(self) -> float:
        return float(self.costs[self.space.origin])

    @property
    def cmax(self) -> float:
        return float(self.costs[self.space.corner])

    def check_monotone(self) -> bool:
        """Verify the PIC is non-decreasing along every axis (PCM check)."""
        for axis in range(self.space.dimensionality):
            diffs = np.diff(self.costs, axis=axis)
            if np.any(diffs < -1e-6 * np.abs(self.costs.take(range(diffs.shape[axis]), axis=axis))):
                return False
        return True


def coarse_subgrid(space: SelectivitySpace, per_dim: int = 4) -> List[Location]:
    """Evenly spaced seed locations, always including both diagonal corners.

    Ledger-only, with :meth:`PlanDiagram.from_candidates`."""
    axes = []
    for res in space.shape:
        count = min(per_dim, res)
        idx = np.unique(np.linspace(0, res - 1, count).round().astype(int))
        axes.append(list(idx))
    return list(itertools.product(*axes))
