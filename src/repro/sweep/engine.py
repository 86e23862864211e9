"""The cohort-stepping sweep engine.

:class:`SweepEngine` computes the optimized-bouquet total cost at many
ESS locations at once by advancing *cohorts* — batches of locations that
share the same discrete execution prefix — through Figure 13, asking the
same decision functions :meth:`repro.core.runtime.BouquetRunner._run_optimized`
asks (:func:`~repro.core.runtime.dominating`,
:func:`~repro.core.runtime.axis_plans`, :func:`~repro.core.runtime.pick`,
…) about every member at once:

1. every location starts in one cohort at the first contour with
   ``q_run = (lo, …, lo)``, costed in a one-row context at the origin;
2. each step gathers what the decisions read (spill floors, candidate
   and full-run costs) from the context its ``q_run`` was costed in
   (:attr:`Cohort.at`: ``q_run`` only moves at a spill, whose
   early-crossing check costs every bouquet plan at the learned rows),
   and the chosen spill's reach is searched for all members at once
   over a truth the sweep costs once;
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
from ..optimizer.plans import CostContext, PlanNode
from .cohorts import _at
from .memo import SweepCache, sweep_cache

__all__ = ["SweepEngine", "Cohort"]

#: Cohorts smaller than this are finished by the per-location reference
#: runner (batching overhead exceeds the win on tiny batches; 1, 2 and 4
#: time alike over the campaign pool).
DEFAULT_RESIDUE_MIN = 4


@dataclass
class Cohort:
    """Locations sharing one discrete execution prefix."""

    rows: np.ndarray  # (N,) indices into the engine's location table
    qrun: np.ndarray  # (N, D) running selectivity lower bounds
    total: np.ndarray  # (N,) accumulated execution cost
    #: The costing context ``q_run`` was last set in (at the origin, or
    #: over the rows of the spill that learned it); ``at_rows`` (N,) is
    #: each member's row in it.  None once the cohort is residue.
    at: Optional[CostContext]
    at_rows: np.ndarray
    cid: int  # current contour position
    exact: FrozenSet[int]  # dims learned exactly
    attempted: FrozenSet[int] = frozenset()  # plans spilled (or pruned) at this contour
    exhausted: FrozenSet[int] = frozenset()  # plans that consumed this contour's budget

    @property
    def size(self) -> int:
        return len(self.rows)

    def subset(self, mask: np.ndarray) -> "Cohort":
        """The members under ``mask``, in this cohort's state."""
        return Cohort(
            self.rows[mask], self.qrun[mask], self.total[mask], self.at, self.at_rows[mask],
            self.cid, self.exact, self.attempted, self.exhausted,
        )

    def crossed(self) -> "Cohort":
        """This cohort on the next contour, where nothing is attempted yet."""
        return Cohort(
            self.rows, self.qrun, self.total, self.at, self.at_rows, self.cid + 1, self.exact
        )


class SweepEngine:
    """Vectorized optimized-bouquet cost-field sweeps for one bouquet."""

    def __init__(self, bouquet: PlanBouquet, tracer: Optional[Tracer] = None):
        self.bouquet = bouquet
        self.space = bouquet.space
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
        origin = np.array([[dim.lo for dim in self.space.dimensions]])
        initial = Cohort(
            rows=np.arange(n, dtype=np.int64),
            qrun=np.repeat(origin, n, axis=0),
            total=np.zeros(n),
            at=cache.coster.context(origin),
            at_rows=np.zeros(n, dtype=np.int64),
            cid=0,
            exact=frozenset(),
        )
        queue: List[Cohort] = [initial]
        residue: List[Cohort] = []
        while queue:
            cohort = queue.pop()
            if cohort.size < DEFAULT_RESIDUE_MIN:
                # The scalar runner costs for itself: let the context go.
                cohort.at = None
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

    def _costs(
        self, cohort: Cohort, nodes: Sequence[PlanNode], wanted: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``(members, nodes)``: the ``wanted`` nodes' costs (all by
        default) at the members' ``q_run``, gathered from the context it
        was costed in; a decision reads no other entry, left at ``inf``."""
        coster = self.cache.coster
        out = np.full((cohort.size, len(nodes)), np.inf)
        for k, node in enumerate(nodes):
            r = slice(None) if wanted is None else wanted[:, k]
            at_rows = cohort.at_rows[r]
            if len(at_rows):
                out[r, k] = coster.cost(_at(node.estimate(cohort.at).cost, at_rows), len(at_rows))
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
            children.append(cohort.subset(~has_dom).crossed())
        if not has_dom.any():
            return children
        cohort, dom = cohort.subset(has_dom), dom[has_dom]
        eligible = dom & [[pid not in cohort.exhausted for pid in tables.plan_ids]]

        if len(cohort.exact) == self.D:
            self._run_fully(cohort, children, eligible, tables, budget)
            return children

        unlearned = frozenset(
            dim.pid for d, dim in enumerate(self.space.dimensions) if d not in cohort.exact
        )
        plans, present, depth = axis_plans(tables, cohort.qrun, cohort.exact, cohort.attempted)
        subtrees = [coster.spill_node(pid, unlearned)[0] or coster.plan(pid) for pid in plans]
        floors = self._costs(cohort, subtrees, present)
        pruned = pruned_by_floor(floors, present, budget)
        productive = present & ~pruned
        costs = self._costs(cohort, [coster.plan(pid) for pid in plans], productive)
        winner = pick(plans, costs, depth, productive)

        fallback = winner < 0
        if fallback.any():
            column = {pid: j for j, pid in enumerate(tables.plan_ids)}
            for k, pid in enumerate(plans):
                eligible[:, column[pid]] &= ~pruned[:, k]
            self._run_fully(cohort.subset(fallback), children, eligible[fallback], tables, budget)
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
                cohort.subset(sel), children, int(w_val), pruned_plans, unlearned, budget
            )
        return children

    def _execute_spill(self, cohort, children, plan_id, pruned_plans, unlearned, budget) -> None:
        coster = self.cache.coster
        rows = cohort.rows
        answered, exact_mask, spent, learned, target_dims = coster.run_spilled(
            plan_id, budget, unlearned, self._at_truth, rows
        )
        qrun = cohort.qrun.copy()
        for col, j in enumerate(target_dims):
            qrun[:, j] = np.maximum(qrun[:, j], learned[:, col])
        total = cohort.total + spent

        # Spill-to-store completions: the resumed plan finished under the
        # budget, answering the query — these locations are done.
        if answered.any():
            self._out[rows[answered]] = total[answered]
        remaining = ~answered
        if not remaining.any():
            return

        # The learned q_run gets one context, which the early-crossing
        # check and every later step of these rows read.
        qrun = qrun[remaining]
        spilled = Cohort(
            rows[remaining], qrun, total[remaining], coster.context(qrun), np.arange(len(qrun)),
            cohort.cid, cohort.exact,
        )
        exact_mask = exact_mask[remaining]
        exhausting = exhausts(answered, spent, budget)[remaining]
        crossed = np.zeros(spilled.size, dtype=bool)
        if cohort.cid + 1 < len(self.bouquet.contours):
            plans = [coster.plan(pid) for pid in self.bouquet.plan_ids]
            crossed = crosses_early(self._costs(spilled, plans), budget)
        attempted, exhausted = book(cohort.attempted, cohort.exhausted, pruned_plans, True, True)
        for exact_spill in (True, False):
            exact = cohort.exact
            if exact_spill and target_dims:
                exact = cohort.exact | set(target_dims)
            for exhausts_plan in (True, False):
                booked = book(attempted, exhausted, frozenset((plan_id,)), True, exhausts_plan)
                for crs in (True, False):
                    mask = (
                        (exact_mask == exact_spill)
                        & (exhausting == exhausts_plan) & (crossed == crs)
                    )
                    if not mask.any():
                        continue
                    child = spilled.subset(mask)
                    child.exact, (child.attempted, child.exhausted) = exact, booked
                    children.append(child.crossed() if crs else child)

    def _run_fully(self, cohort, children, eligible, tables, budget) -> None:
        """Nothing (left) to learn on this contour: the members run plans
        fully, in the order the endgame (every dimension exact) or the
        fallback decides.  A closed form over the true costs: the first
        plan that fits the budget answers, every one before it burns the
        budget, and with none the contour is crossed."""
        coster = self.cache.coster
        costs = self._costs(cohort, [coster.plan(pid) for pid in tables.plan_ids], eligible)
        if len(cohort.exact) == self.D:
            order, runs = endgame(costs, eligible)
        else:
            order, runs = fallback_order(costs, eligible, budget)
        fields = self.bouquet.cost_cache.cost_arrays(tables.plan_ids)
        rows, total = cohort.rows, cohort.total
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
            crossing = cohort.subset(~answered)
            crossing.total = crossing.total + budget * runs[~answered]
            children.append(crossing.crossed())
