"""Cohort batching primitives for the optimized-bouquet sweep engine.

The optimized driver (:meth:`repro.core.runtime.BouquetRunner._run_optimized`)
advances one query location at a time through a discrete state machine:
climb contours, pick an AxisPlans candidate, spill it, merge the learning
into ``q_run``.  The decisions taken at each step are *discrete* — which
plan, did the spill complete, did the contour get crossed early — so
locations that share the same decision prefix can be advanced together
("cohorts"), with every per-location quantity (``q_run``, accumulated
cost, spill bisection) carried in numpy arrays.

Two building blocks live here:

* :class:`BatchCoster` — vectorized abstract plan costing over a batch of
  continuous ``q_run`` rows.  The plan cost formulas already evaluate
  elementwise over arrays (see :mod:`repro.optimizer.plans`), so a whole
  cohort is costed in one tree walk.  Also hosts the batched spill-mode
  execution (the 40-step budget bisection of
  :meth:`~repro.core.runtime.AbstractExecutionService.run_spilled`, run
  on all cohort members at once, each step moving the spill node's own
  formula over inputs costed once).
* :class:`ContourTables` — per-contour grid precomputations: dominance
  tests against the contour frontier, and the AxisPlans ray-walk/owner
  lookup flattened into gather tables so a cohort's candidate plans come
  from one fancy-indexing pass instead of per-location ray walks.

Both mirror the reference arithmetic exactly (same tolerance constants,
same geometric-interpolation formulas) so the engine's field agrees with
the per-location driver to float noise — orders of magnitude below the
1e-9 relative tolerance ``tests/sweep/test_sweep_engine.py`` enforces.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..core.bouquet import PlanBouquet
from ..optimizer.plans import (
    CostContext,
    PlanNode,
    error_node_depth,
    first_error_node,
    own_formula,
)

__all__ = ["BatchCoster", "ContourTables"]


class BatchCoster:
    """Vectorized plan costing + spill execution over location batches."""

    def __init__(self, bouquet: PlanBouquet):
        self.bouquet = bouquet
        self.space = bouquet.space
        cache = bouquet.cost_cache
        self.schema = cache.optimizer.schema
        self.model = cache.optimizer.cost_model
        self.registry = bouquet.registry
        self.dims = self.space.dimensions
        self.base = dict(self.space.base_assignment)
        self.pid_of_dim = [dim.pid for dim in self.dims]
        #: Batched costings (telemetry: one per plan, subtree or spill-node
        #: formula evaluated over a batch).
        self.batched_costings = 0
        self._plans: Dict[int, PlanNode] = {}
        # (plan_id, unlearned) -> (first error node | None, target dim idxs)
        self._spill_nodes: Dict[Tuple[int, FrozenSet[str]], Tuple[Optional[PlanNode], Tuple[int, ...]]] = {}
        # plan_id -> per-dimension error_node_depth vector
        self._depths: Dict[int, np.ndarray] = {}

    # -- plan metadata --------------------------------------------------

    def plan(self, plan_id: int) -> PlanNode:
        node = self._plans.get(plan_id)
        if node is None:
            node = self._plans[plan_id] = self.registry.plan(plan_id)
        return node

    def depths(self, plan_id: int) -> np.ndarray:
        """``error_node_depth(plan, {pid_d})`` for every ESS dimension."""
        vec = self._depths.get(plan_id)
        if vec is None:
            plan = self.plan(plan_id)
            vec = np.array(
                [
                    error_node_depth(plan, frozenset((dim.pid,)))
                    for dim in self.dims
                ],
                dtype=np.int64,
            )
            self._depths[plan_id] = vec
        return vec

    def spill_node(
        self, plan_id: int, unlearned: FrozenSet[str]
    ) -> Tuple[Optional[PlanNode], Tuple[int, ...]]:
        """First error node + sorted target dim indices for one spill."""
        key = (plan_id, unlearned)
        hit = self._spill_nodes.get(key)
        if hit is None:
            plan = self.plan(plan_id)
            node = first_error_node(plan, unlearned)
            if node is None:
                hit = (None, ())
            else:
                target_pids = sorted(node.local_pids & unlearned)
                hit = (node, tuple(self.pid_of_dim.index(p) for p in target_pids))
            self._spill_nodes[key] = hit
        return hit

    # -- batched costing ------------------------------------------------

    def assignment(self, values: np.ndarray) -> Dict[str, object]:
        """Clamped array assignment for a batch of continuous rows.

        Mirrors :meth:`SelectivitySpace.assignment_for`: every error dim
        is clamped into ``[lo, hi]``; non-error pids keep their base
        scalars."""
        out: Dict[str, object] = dict(self.base)
        for j, dim in enumerate(self.dims):
            out[dim.pid] = np.minimum(dim.hi, np.maximum(dim.lo, values[:, j]))
        return out

    def _context(self, assignment: Dict[str, object]) -> CostContext:
        return CostContext(self.schema, self.model, assignment)

    def _cost(self, estimate, ctx: CostContext, n: int) -> np.ndarray:
        """One batched evaluation (a node's ``estimate`` or its own
        formula) in ``ctx``, as a fresh cost array over ``n`` rows."""
        self.batched_costings += 1
        return np.broadcast_to(np.asarray(estimate(ctx).cost, dtype=float), (n,)).copy()

    def plan_cost(self, plan_id: int, values: np.ndarray) -> np.ndarray:
        """Plan cost at clamped rows, for a whole batch."""
        ctx = self._context(self.assignment(values))
        return self._cost(self.plan(plan_id).estimate, ctx, len(values))

    def spill_floor(
        self, plan_id: int, values: np.ndarray, unlearned: FrozenSet[str]
    ) -> np.ndarray:
        """Batched :meth:`BouquetRunner._spill_floor`: cost of the spilled
        subtree (full plan when no error node) at clamped ``q_run`` rows."""
        node, _ = self.spill_node(plan_id, unlearned)
        ctx = self._context(self.assignment(values))
        return self._cost((node or self.plan(plan_id)).estimate, ctx, len(values))

    def optimal_estimate(self, values: np.ndarray) -> np.ndarray:
        """Batched PIC estimate: min over bouquet plan costs at each row,
        all in one context (shared sub-trees are costed once)."""
        ctx = self._context(self.assignment(values))
        best: Optional[np.ndarray] = None
        for plan_id in self.bouquet.plan_ids:
            cost = self._cost(self.plan(plan_id).estimate, ctx, len(values))
            best = cost if best is None else np.minimum(best, cost)
        assert best is not None
        return best

    # -- batched spill-mode execution -----------------------------------

    def run_spilled(
        self,
        plan_id: int,
        budget: float,
        unlearned: FrozenSet[str],
        truth: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Tuple[int, ...]]:
        """Batched :meth:`AbstractExecutionService.run_spilled`.

        ``truth`` holds the clamped true selectivities of the batch
        (rows x dims).  Returns ``(answered, exact, cost_spent, learned,
        target_dims)``: ``answered`` rows completed the *query* (the
        spill-to-store resume fit the budget, spending the plan's true
        cost); ``exact`` rows resolved the spilled subtree — exact
        learning — but the resumed plan consumed the whole budget; all
        other rows charge the budget and learn the bisected lower bound.
        ``learned`` has one column per target dim.
        """
        n = len(truth)
        node, target_dims = self.spill_node(plan_id, unlearned)
        at_truth = self._context(self.assignment(truth))
        plan_full = self._cost(self.plan(plan_id).estimate, at_truth, n)
        if node is None:
            # No error-prone node: degenerate to a full run at the truth.
            answered = plan_full <= budget
            spent = np.where(answered, plan_full, budget)
            return answered, np.zeros(n, dtype=bool), spent, np.empty((n, 0)), ()

        targets = [(self.dims[j].pid, self.dims[j].lo) for j in target_dims]

        def subtree_cost(t: np.ndarray, ctx: CostContext, formula) -> np.ndarray:
            # Over the rows of ``ctx`` (the truth).  Nothing below the
            # first error node reads an unlearned pid, so ``formula`` —
            # ``own_formula(node, ctx)``, inputs costed once — is all
            # that moves with ``t``.  _geometric_interp(lo, truth, t) =
            # truth if truth <= lo else lo * (truth / lo) ** t.
            assignment = dict(ctx.assignment)
            for pid, lo in targets:
                tv = ctx.assignment[pid]
                assignment[pid] = np.where(tv <= lo, tv, lo * (tv / lo) ** t)
            return self._cost(formula, self._context(assignment), len(t))

        subtree_full = subtree_cost(np.ones(n), at_truth, own_formula(node, at_truth))
        # Spill-to-store: the plan fits the budget -> the query is
        # answered; only the subtree fits -> exact learning, full budget.
        answered = plan_full <= budget
        exact = ~answered & (subtree_full <= budget)
        spent = np.where(answered, plan_full, budget)
        learned = np.empty((n, len(target_dims)))
        for col, (pid, _lo) in enumerate(targets):
            learned[:, col] = at_truth.assignment[pid]
        rows = ~answered & ~exact
        if rows.any():
            m = int(rows.sum())
            # The bisected rows are sliced out once, not per iteration.
            sub = self._context(self.assignment(truth[rows]))
            formula = own_formula(node, sub)
            at0 = subtree_cost(np.zeros(m), sub, formula)
            stuck = at0 > budget
            lo_t = np.zeros(m)
            hi_t = np.ones(m)
            active = ~stuck
            if active.any():
                for _ in range(40):
                    mid = 0.5 * (lo_t + hi_t)
                    cost = subtree_cost(mid, sub, formula)
                    fits = cost <= budget
                    lo_t = np.where(active & fits, mid, lo_t)
                    hi_t = np.where(active & ~fits, mid, hi_t)
            for col, (pid, lo) in enumerate(targets):
                tv = at_truth.assignment[pid][rows]
                learned[rows, col] = np.where(
                    tv <= lo, tv, lo * (tv / lo) ** lo_t
                )
        return answered, exact, spent, learned, target_dims

    # -- grid helpers ---------------------------------------------------

    def snap(self, values: np.ndarray) -> np.ndarray:
        """Batched :meth:`SelectivitySpace.snap` (ceil to grid indices)."""
        out = np.empty(values.shape, dtype=np.int64)
        for j, grid in enumerate(self.space.grids):
            idx = np.searchsorted(grid, values[:, j] * (1.0 - 1e-12), side="left")
            out[:, j] = np.minimum(idx, grid.size - 1)
        return out


class ContourTables:
    """Per-contour grid precomputations for one bouquet contour.

    Everything here is a pure function of the (immutable) bouquet, so the
    tables are built once per contour and memoized on the bouquet's sweep
    cache — repeated sweeps (metric entry points, serving warm-ups,
    verification samples) never rebuild them.
    """

    def __init__(self, bouquet: PlanBouquet, position: int):
        contour = bouquet.contours[position]
        space = bouquet.space
        shape = space.shape
        ndim = space.dimensionality
        self.position = position
        self.cost = contour.cost
        self.threshold = contour.cost * (1.0 + 1e-9)
        #: Resident plans, ascending (the reference iterates them sorted).
        self.plan_ids: List[int] = list(contour.plan_ids)

        # Contour frontier: selectivities + owning plan, in list order
        # (the covering-location tie break keeps the first of the list).
        locs = contour.locations
        self._loc_coords = np.array(locs, dtype=np.int64).reshape(len(locs), ndim)
        self._loc_sels = np.array(
            [space.selectivities_at(loc) for loc in locs], dtype=float
        ).reshape(len(locs), ndim)
        loc_plans = np.array([contour.plan_at[loc] for loc in locs], dtype=np.int64)
        self._plan_cols = [
            np.flatnonzero(loc_plans == pid) for pid in self.plan_ids
        ]

        costs = bouquet.diagram.costs
        inside = costs <= self.threshold
        self.inside_flat = inside.ravel()

        # Ray-walk table: run_end[d][p] = last grid index g >= p_d such
        # that every cell from p_d to g along axis d stays inside — the
        # reference's +d walk, for every start point at once.
        run_end: List[np.ndarray] = []
        for d in range(ndim):
            axis_idx = np.arange(shape[d]).reshape(
                (1,) * d + (shape[d],) + (1,) * (ndim - d - 1)
            )
            arr = np.where(inside, axis_idx, -1)
            for g in range(shape[d] - 2, -1, -1):
                here = tuple(
                    [slice(None)] * d + [g] + [slice(None)] * (ndim - d - 1)
                )
                nxt = tuple(
                    [slice(None)] * d + [g + 1] + [slice(None)] * (ndim - d - 1)
                )
                cont = inside[here] & inside[nxt]
                arr[here] = np.where(cont, arr[nxt], arr[here])
            run_end.append(arr)

        # Owner table: for every grid point, the closest (L1, first-wins)
        # contour location dominating it, and that location's plan.
        grid_idx = np.indices(shape)
        point_sum = grid_idx.sum(axis=0)
        owner = np.full(shape, -1, dtype=np.int64)
        best = np.full(shape, np.inf)
        loc_sums = self._loc_coords.sum(axis=1)
        for l in range(len(locs)):
            dominates = np.ones(shape, dtype=bool)
            for d in range(ndim):
                dominates &= grid_idx[d] <= self._loc_coords[l, d]
            distance = loc_sums[l] - point_sum
            better = dominates & (distance < best)
            owner[better] = l
            best[better] = distance[better]
        owner_plan = np.where(owner >= 0, loc_plans[np.maximum(owner, 0)], -1)

        # AxisPlans gather: axis_plan[d][p] = candidate plan reached by
        # walking the +d ray from p (or -1 when p is outside the contour
        # or the ray end has no covering contour location).
        self.axis_plan_flat: List[np.ndarray] = []
        for d in range(ndim):
            ray = np.clip(run_end[d], 0, shape[d] - 1)
            gathered = np.take_along_axis(owner_plan, ray, axis=d)
            valid = inside & (run_end[d] >= 0)
            self.axis_plan_flat.append(
                np.where(valid, gathered, -1).ravel()
            )

    def dominating(self, qrun: np.ndarray) -> np.ndarray:
        """Boolean (rows x resident plans): does the plan own a contour
        location dominating this row's ``q_run`` (first-quadrant check)?"""
        scaled = qrun * (1.0 - 1e-9)
        dom_loc = (self._loc_sels[None, :, :] >= scaled[:, None, :]).all(axis=2)
        out = np.empty((len(qrun), len(self.plan_ids)), dtype=bool)
        for j, cols in enumerate(self._plan_cols):
            out[:, j] = dom_loc[:, cols].any(axis=1)
        return out
