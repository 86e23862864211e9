"""The cohort-stepping sweep engine.

:class:`SweepEngine` computes the optimized-bouquet total cost at many
ESS locations at once by advancing *cohorts* — batches of locations that
share the same discrete execution prefix — through Figure 13, asking the
same decision functions :meth:`repro.core.runtime.BouquetRunner._run_optimized`
asks (:func:`~repro.core.runtime.dominating`,
:func:`~repro.core.runtime.axis_plans`, :func:`~repro.core.runtime.pick`,
…) about every member at once:

1. every location starts in one cohort at the first contour with
   ``q_run = (lo, …, lo)``;
2. each step costs what the decisions read for the whole cohort in one
   context at its ``q_run`` rows, and the chosen spill's reach is
   searched for all members at once over a truth the sweep costs once;
3. the cohort then *splits* by decision signature — (contour, plan,
   spill outcome, early-crossing verdict) — and each child continues as
   its own cohort;
4. cohorts that shrink below the batching threshold become *residue*:
   each member continues through the scalar runner from the state its
   cohort reached (``q_run``, charged total, contour, tried plans) —
   the executions the cohort already simulated are not run again.

Full runs need no per-location loop: once nothing is left to learn on a
contour, the plans the endgame or the fallback order runs are looked up
in the :class:`~repro.ess.diagram.PlanCostCache` cost arrays — the first
that fits the budget answers, every one before it burns the budget, and
with none the contour is crossed.

Costing and execution are the engine's own; every decision is shared, so
the fields agree with the per-location driver to float rounding noise,
far inside the 1e-9 relative tolerance of
``tests/sweep/test_sweep_engine.py::TestFieldEquality``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

import numpy as np

from ..core.bouquet import PlanBouquet
from ..core.runtime import (
    AbstractExecutionService,
    BouquetRunner,
    RunState,
    axis_plans,
    book,
    crosses_early,
    dominating,
    endgame,
    exhausts,
    fallback_order,
    pick,
    pruned_by_floor,
)
from ..ess.space import Location
from ..exceptions import BouquetError
from ..obs.tracer import Tracer
from ..optimizer.plans import CostContext
from .memo import SweepCache, sweep_cache

__all__ = ["SweepEngine", "Cohort"]

#: Cohorts smaller than this are finished by the per-location reference
#: runner (batching overhead exceeds the win on tiny batches).
DEFAULT_RESIDUE_MIN = 4


@dataclass
class Cohort:
    """Locations sharing one discrete execution prefix."""

    rows: np.ndarray  # (N,) indices into the engine's location table
    qrun: np.ndarray  # (N, D) running selectivity lower bounds
    total: np.ndarray  # (N,) accumulated execution cost
    cid: int  # current contour position
    exact: FrozenSet[int]  # dims learned exactly
    attempted: FrozenSet[int]  # plans spilled (or pruned) at this contour
    exhausted: FrozenSet[int]  # plans that consumed this contour's budget

    @property
    def size(self) -> int:
        return len(self.rows)


class SweepEngine:
    """Vectorized optimized-bouquet cost-field sweeps for one bouquet."""

    def __init__(
        self,
        bouquet: PlanBouquet,
        residue_min: int = DEFAULT_RESIDUE_MIN,
        tracer: Optional[Tracer] = None,
    ):
        self.bouquet = bouquet
        self.space = bouquet.space
        self.residue_min = max(1, residue_min)
        if tracer is not None:
            self.tracer = tracer
        else:
            self.tracer = bouquet.cost_cache.optimizer.tracer
        self.cache: SweepCache = sweep_cache(bouquet)
        self.budgets = list(bouquet.budgets)
        self.D = self.space.dimensionality
        self._shape = self.space.shape
        # Per-run state (set by _sweep):
        self._flat: Optional[np.ndarray] = None
        self._out: Optional[np.ndarray] = None
        self._at_truth: Optional[CostContext] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def cost_field(self, refresh: bool = False) -> np.ndarray:
        """The full-grid optimized cost field (shape = space.shape)."""
        if refresh:
            self.cache.invalidate()
        flat = np.arange(self.space.size, dtype=np.int64)
        totals = self._totals_for_flat(flat)
        return totals.reshape(self._shape)

    def totals(self, locations: Iterable[Location]) -> np.ndarray:
        """Per-location totals, aligned with the ``locations`` order."""
        locs = list(locations)
        if not locs:
            return np.empty(0)
        coords = np.array(locs, dtype=np.int64).reshape(len(locs), self.D)
        flat = np.ravel_multi_index(tuple(coords.T), self._shape)
        return self._totals_for_flat(flat)

    def field_dict(
        self, locations: Optional[Iterable[Location]] = None
    ) -> Dict[Location, float]:
        """Dict-shaped field (the :func:`optimized_cost_field` contract)."""
        locs = (
            list(locations) if locations is not None
            else list(self.space.locations())
        )
        values = self.totals(locs)
        return {loc: float(v) for loc, v in zip(locs, values)}

    # ------------------------------------------------------------------
    # Sweep driver
    # ------------------------------------------------------------------

    def _totals_for_flat(self, flat: np.ndarray) -> np.ndarray:
        cache = self.cache
        tracer = self.tracer
        with tracer.span(
            "sweep.field",
            locations=len(flat),
            contours=len(self.bouquet.contours),
        ) as span:
            known = cache.known(flat)
            hits = int(known.sum())
            if tracer.enabled and hits:
                tracer.count("sweep.memo_hits", hits)
            todo = flat[~known]
            stats: Dict[str, float] = {
                "cohorts": 0, "splits": 0, "residue": 0, "steps": 0
            }
            if len(todo):
                self._sweep(todo, stats)
            span.set(
                memo_hits=hits,
                cohorts=int(stats["cohorts"]),
                splits=int(stats["splits"]),
                residue=int(stats["residue"]),
                batched_costings=cache.coster.batched_costings,
            )
        return cache.totals[flat].copy()

    def _sweep(self, flat: np.ndarray, stats: Dict[str, float]) -> None:
        cache = self.cache
        tracer = self.tracer
        n = len(flat)
        self._flat = flat
        self._out = np.full(n, np.nan)
        # One context over the truth of the swept locations (cohort
        # ``rows`` index it): what a spill reads there is costed once.
        self._at_truth = cache.coster.context(cache.truth[flat])
        before = cache.coster.spill_evaluations
        lo = np.array([dim.lo for dim in self.space.dimensions])
        initial = Cohort(
            rows=np.arange(n, dtype=np.int64),
            qrun=np.broadcast_to(lo, (n, self.D)).copy(),
            total=np.zeros(n),
            cid=0,
            exact=frozenset(),
            attempted=frozenset(),
            exhausted=frozenset(),
        )
        queue: List[Cohort] = [initial]
        residue: List[Cohort] = []
        while queue:
            cohort = queue.pop()
            if cohort.size < self.residue_min:
                residue.append(cohort)
                continue
            stats["cohorts"] += 1
            if tracer.enabled:
                tracer.count("sweep.cohorts")
                tracer.observe("sweep.cohort_size", cohort.size)
            children = self._step(cohort)
            stats["steps"] += 1
            stats["splits"] += max(0, len(children) - 1)
            if tracer.enabled and len(children) > 1:
                tracer.count("sweep.cohort_splits", len(children) - 1)
            queue.extend(children)
        if tracer.enabled:
            tracer.count("sweep.spill_formula_evaluations", cache.coster.spill_evaluations - before)
        if residue:
            rows = np.concatenate([cohort.rows for cohort in residue])
            stats["residue"] += len(rows)
            if tracer.enabled:
                tracer.count("sweep.residue_locations", len(rows))
            self._out[rows] = self._finish_residue(residue)
        if np.isnan(self._out).any():
            raise BouquetError("sweep engine left locations unswept")
        cache.store(flat, self._out)
        self._flat = self._out = self._at_truth = None

    def _finish_residue(self, cohorts: List[Cohort]) -> np.ndarray:
        """Totals of the cohorts too small to batch, members in cohort
        order: each resumes the scalar Figure 13 loop from its cohort's
        state instead of re-running it from the ESS origin."""
        totals, executions = [], 0
        for cohort in cohorts:
            truth = self.cache.truth[self._flat[cohort.rows]].tolist()
            for qa, qrun, total in zip(truth, cohort.qrun.tolist(), cohort.total.tolist()):
                service = AbstractExecutionService(self.bouquet, qa)
                result = BouquetRunner(self.bouquet, service)._run_optimized(
                    RunState(
                        qrun, set(cohort.exact), cohort.cid, total,
                        cohort.attempted, cohort.exhausted,
                    )
                )
                if not result.completed:
                    raise BouquetError("residue run did not complete — contour coverage bug")
                totals.append(result.total_cost)
                executions += result.execution_count
        if self.tracer.enabled:
            self.tracer.count("sweep.residue_executions", executions)
        return np.array(totals)

    # ------------------------------------------------------------------
    # One cohort step (one contour interaction)
    # ------------------------------------------------------------------

    @staticmethod
    def _child(
        mask: np.ndarray,
        qrun: np.ndarray,
        total: np.ndarray,
        rows: np.ndarray,
        *,
        cid: int,
        exact: FrozenSet[int],
        attempted: FrozenSet[int] = frozenset(),
        exhausted: FrozenSet[int] = frozenset(),
    ) -> Cohort:
        return Cohort(
            rows=rows[mask],
            qrun=qrun[mask],
            total=total[mask],
            cid=cid,
            exact=exact,
            attempted=attempted,
            exhausted=exhausted,
        )

    def _costs(self, plans: Sequence[int], ctx: CostContext, wanted: np.ndarray) -> np.ndarray:
        """``(rows, plans)``: the ``wanted`` plans' costs in ``ctx``; a
        decision reads no other entry, left at ``inf``."""
        coster = self.cache.coster
        n = len(wanted)
        out = np.full((n, len(plans)), np.inf)
        for k, pid in enumerate(plans):
            r = wanted[:, k]
            if r.any():
                out[r, k] = coster.cost(coster.plan(pid).estimate(ctx).cost, n)[r]
        return out

    def _step(self, cohort: Cohort) -> List[Cohort]:
        contours = self.bouquet.contours
        if cohort.cid >= len(contours):
            # The reference run would return completed=False here and
            # simulate_at would raise: contour coverage is broken.
            raise BouquetError(
                "sweep reached the end of the contour ladder without "
                "completing — contour coverage bug"
            )
        cid = cohort.cid
        budget = self.budgets[cid]
        tables = self.bouquet.contour_tables(cid)
        coster = self.cache.coster
        children: List[Cohort] = []

        dom = dominating(tables, cohort.qrun)
        has_dom = dom.any(axis=1)
        if not has_dom.all():
            children.append(
                self._child(~has_dom, cohort.qrun, cohort.total, cohort.rows,
                            cid=cid + 1, exact=cohort.exact)
            )
        if not has_dom.any():
            return children
        rows = cohort.rows[has_dom]
        qrun = cohort.qrun[has_dom]
        total = cohort.total[has_dom]
        dom = dom[has_dom]
        n = len(rows)
        eligible = dom & [[pid not in cohort.exhausted for pid in tables.plan_ids]]

        if len(cohort.exact) == self.D:
            self._run_fully(cohort, children, rows, qrun, total, eligible, tables, budget)
            return children

        unlearned = frozenset(
            dim.pid for d, dim in enumerate(self.space.dimensions) if d not in cohort.exact
        )
        plans, present, depth = axis_plans(tables, qrun, cohort.exact, cohort.attempted)
        # One context for the step, over all its rows: a candidate's
        # spill sub-tree and its plan are costed together.
        at_qrun = coster.context(qrun)
        floors = np.empty((n, len(plans)))
        for k, pid in enumerate(plans):
            node, _ = coster.spill_node(pid, unlearned)
            floors[:, k] = coster.cost((node or coster.plan(pid)).estimate(at_qrun).cost, n)
        pruned = pruned_by_floor(floors, present, budget)
        productive = present & ~pruned
        winner = pick(plans, self._costs(plans, at_qrun, productive), depth, productive)

        fallback = winner < 0
        if fallback.any():
            column = {pid: j for j, pid in enumerate(tables.plan_ids)}
            for k, pid in enumerate(plans):
                eligible[:, column[pid]] &= ~pruned[:, k]
            self._run_fully(
                cohort, children, rows[fallback], qrun[fallback], total[fallback],
                eligible[fallback], tables, budget,
            )
        active = ~fallback
        if not active.any():
            return children
        # Group spill executions by (pruned set, winner) — the spill
        # itself only depends on the winner, but the pruned set feeds the
        # child cohorts' attempted/exhausted state.
        bits = (pruned @ (1 << np.arange(len(plans), dtype=np.int64))).astype(np.int64)
        for b_val, w_val in sorted({tuple(p) for p in np.stack([bits, winner], axis=1)[active].tolist()}):
            sel = active & (bits == b_val) & (winner == w_val)
            pruned_plans = frozenset(pid for k, pid in enumerate(plans) if b_val >> k & 1)
            self._execute_spill(
                cohort, children, rows[sel], qrun[sel], total[sel],
                int(w_val), pruned_plans, unlearned, budget,
            )
        return children

    def _execute_spill(
        self, cohort, children, rows, qrun, total, plan_id, pruned_plans, unlearned, budget
    ) -> None:
        coster = self.cache.coster
        cid = cohort.cid
        answered, exact_mask, spent, learned, target_dims = coster.run_spilled(
            plan_id, budget, unlearned, self._at_truth, rows
        )
        qrun = qrun.copy()
        for col, j in enumerate(target_dims):
            qrun[:, j] = np.maximum(qrun[:, j], learned[:, col])
        total = total + spent

        # Spill-to-store completions: the resumed plan finished under the
        # budget, answering the query — these locations are done.
        if answered.any():
            self._out[rows[answered]] = total[answered]
        remaining = ~answered
        if not remaining.any():
            return

        exhausting = exhausts(answered, spent, budget)
        crossed = np.zeros(len(rows), dtype=bool)
        if cid + 1 < len(self.bouquet.contours):
            crossed[remaining] = crosses_early(coster.bouquet_costs(qrun[remaining]), budget)
        attempted, exhausted = book(cohort.attempted, cohort.exhausted, pruned_plans, True, True)
        for exact_spill in (True, False):
            exact = cohort.exact
            if exact_spill and target_dims:
                exact = cohort.exact | set(target_dims)
            for exhausts_plan in (True, False):
                booked = book(attempted, exhausted, frozenset((plan_id,)), True, exhausts_plan)
                for crs in (True, False):
                    mask = (
                        remaining & (exact_mask == exact_spill)
                        & (exhausting == exhausts_plan) & (crossed == crs)
                    )
                    if not mask.any():
                        continue
                    if crs:
                        children.append(
                            self._child(mask, qrun, total, rows, cid=cid + 1, exact=exact)
                        )
                    else:
                        children.append(
                            self._child(
                                mask, qrun, total, rows, cid=cid, exact=exact,
                                attempted=booked[0], exhausted=booked[1],
                            )
                        )

    def _run_fully(self, cohort, children, rows, qrun, total, eligible, tables, budget) -> None:
        """Nothing (left) to learn on this contour: the rows run plans
        fully, in the order the endgame (every dimension exact) or the
        fallback decides.  A closed form over the true costs: the first
        plan that fits the budget answers, every one before it burns the
        budget, and with none the contour is crossed."""
        costs = self._costs(tables.plan_ids, self.cache.coster.context(qrun), eligible)
        if len(cohort.exact) == self.D:
            order, runs = endgame(costs, eligible)
        else:
            order, runs = fallback_order(costs, eligible, budget)
        fields = self.bouquet.cost_cache.cost_arrays(tables.plan_ids)
        flat = self._flat[rows]
        true_cost = np.stack([fields[pid].ravel()[flat] for pid in tables.plan_ids], axis=1)
        in_order = np.take_along_axis(true_cost, order, axis=1)
        completes = (np.arange(order.shape[1]) < runs[:, None]) & (in_order <= budget)
        answered = completes.any(axis=1)
        if answered.any():
            # The completer's position in the order: how many ran before it.
            fails = completes.argmax(axis=1)
            final = in_order[np.arange(len(rows)), fails]
            self._out[rows[answered]] = (
                total[answered] + budget * fails[answered] + final[answered]
            )
        if not answered.all():
            children.append(
                self._child(~answered, qrun, total + budget * runs, rows,
                            cid=cohort.cid + 1, exact=cohort.exact)
            )
