"""The cohort-stepping sweep engine.

:class:`SweepEngine` computes the optimized-bouquet total cost at many
ESS locations at once by advancing *cohorts* — batches of locations that
share the same discrete execution prefix — through an exact vectorized
replica of :meth:`repro.core.runtime.BouquetRunner._run_optimized`:

1. every location starts in one cohort at the first contour with
   ``q_run = (lo, …, lo)``;
2. each step evaluates the driver's decisions for the whole cohort with
   numpy (first-quadrant dominance against precomputed contour tables,
   AxisPlans candidates via gather tables, spill floors and candidate
   picks costed in one context at the cohort's ``q_run`` rows, the
   spilled run's reach searched for all members at once over a truth
   the sweep costs once);
3. the cohort then *splits* by decision signature — (contour, plan,
   spill outcome, early-crossing verdict) — and each child continues as
   its own cohort;
4. cohorts that shrink below the batching threshold become *residue*:
   each member continues through the scalar runner from the state its
   cohort reached (``q_run``, charged total, contour, tried plans) —
   the executions the cohort already simulated are not run again.

Two closed forms avoid per-location loops entirely: once every dimension
is learned exactly, the remaining climb reduces to masked lookups over
the :class:`~repro.ess.diagram.PlanCostCache` cost arrays (the cheapest
runnable plan either completes immediately or every runnable plan fails
and the contour is crossed); and the no-productive-candidate fallback is
a rank computation over batched plan costs.

The arithmetic mirrors the reference exactly — same tolerance constants,
same interpolation formulas — so fields agree to float rounding noise,
far inside the 1e-9 relative tolerance of
``tests/sweep/test_sweep_engine.py::TestFieldEquality``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional

import numpy as np

from ..core.bouquet import PlanBouquet
from ..core.runtime import (
    EQUIVALENCE_THRESHOLD,
    AbstractExecutionService,
    BouquetRunner,
    RunState,
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

_NEG = -(10**9)


@dataclass
class Cohort:
    """Locations sharing one discrete execution prefix."""

    rows: np.ndarray  # (N,) indices into the engine's location table
    qrun: np.ndarray  # (N, D) running selectivity lower bounds
    total: np.ndarray  # (N,) accumulated execution cost
    cid: int  # current contour position
    exact: FrozenSet[int]  # dims learned exactly
    attempted: FrozenSet[int]  # plans spilled at this contour
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
                        set(cohort.attempted), set(cohort.exhausted),
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
        attempted: FrozenSet[int],
        exhausted: FrozenSet[int],
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
        tables = self.cache.tables(cid)
        children: List[Cohort] = []

        dom = tables.dominating(cohort.qrun)
        has_dom = dom.any(axis=1)
        if not has_dom.all():
            # First-quadrant pruning: qa cannot lie inside this contour —
            # cross without execution.
            children.append(
                self._child(
                    ~has_dom, cohort.qrun, cohort.total, cohort.rows,
                    cid=cid + 1, exact=cohort.exact,
                    attempted=frozenset(), exhausted=frozenset(),
                )
            )
        if not has_dom.any():
            return children
        rows = cohort.rows[has_dom]
        qrun = cohort.qrun[has_dom]
        total = cohort.total[has_dom]
        dom = dom[has_dom]
        flat = self._flat[rows]

        if len(cohort.exact) == self.D:
            # Endgame: every dimension learned exactly, so AxisPlans has
            # nothing to offer and the driver goes straight to the
            # run-the-dominating-plans fallback.
            self._fallback(
                cohort, children, rows, qrun, total, dom, flat,
                np.zeros((len(rows), 0), dtype=bool), [], tables, budget,
            )
            return children

        self._spill_step(
            cohort, children, rows, qrun, total, dom, flat, tables, budget
        )
        return children

    # -- spill step ------------------------------------------------------

    def _spill_step(
        self, cohort, children, rows, qrun, total, dom, flat, tables, budget
    ) -> None:
        coster = self.cache.coster
        cid = cohort.cid
        n = len(rows)
        D = self.D
        exact = cohort.exact
        unlearned_dims = [d for d in range(D) if d not in exact]
        unlearned = frozenset(
            self.space.dimensions[d].pid for d in unlearned_dims
        )

        # AxisPlans candidates via the precomputed gather tables.
        snapped = coster.snap(qrun)
        snap_flat = np.ravel_multi_index(tuple(snapped.T), self._shape)
        inside0 = tables.inside_flat[snap_flat]
        cand = np.full((n, D), -1, dtype=np.int64)
        for d in unlearned_dims:
            cand[:, d] = np.where(
                inside0, tables.axis_plan_flat[d][snap_flat], -1
            )
        plan_list = sorted(
            set(int(p) for p in np.unique(cand) if p >= 0) - set(cohort.attempted)
        )
        P = len(plan_list)
        if P == 0:
            self._fallback(
                cohort, children, rows, qrun, total, dom, flat,
                np.zeros((n, 0), dtype=bool), [], tables, budget,
            )
            return
        present = np.zeros((n, P), dtype=bool)
        depth = np.full((n, P), _NEG, dtype=np.int64)
        for k, pid in enumerate(plan_list):
            hit = cand == pid
            present[:, k] = hit.any(axis=1)
            depth[:, k] = np.where(hit, coster.depths(pid)[None, :], _NEG).max(axis=1)

        # Spill-floor pre-check: candidates whose spilled subtree already
        # prices at/above the budget at q_run are pruned (and exhausted).
        # One context for the step, over all its rows (masked after): a
        # candidate's spill sub-tree and its plan are costed together.
        at_qrun = coster.context(qrun)
        pruned = np.zeros((n, P), dtype=bool)
        for k, pid in enumerate(plan_list):
            node, _ = coster.spill_node(pid, unlearned)
            floor = coster.cost((node or coster.plan(pid)).estimate(at_qrun).cost, n)
            pruned[:, k] = present[:, k] & (floor >= budget * (1.0 - 1e-9))
        productive = present & ~pruned

        # Candidate pick: cheapest cost-equivalence group, deepest error
        # node first, plan id as the final tie break.
        costq = np.full((n, P), np.inf)
        for k, pid in enumerate(plan_list):
            r = productive[:, k]
            if r.any():
                costq[r, k] = coster.cost(coster.plan(pid).estimate(at_qrun).cost, n)[r]
        cheapest = np.min(np.where(productive, costq, np.inf), axis=1)
        with np.errstate(invalid="ignore"):
            in_group = productive & (
                costq <= (cheapest * (1.0 + EQUIVALENCE_THRESHOLD))[:, None]
            )
        best_depth = np.full(n, _NEG, dtype=np.int64)
        best_cost = np.full(n, np.inf)
        winner = np.full(n, -1, dtype=np.int64)
        for k, pid in enumerate(plan_list):
            g = in_group[:, k]
            d_k = depth[:, k]
            c_k = costq[:, k]
            better = g & (
                (d_k > best_depth)
                | ((d_k == best_depth) & (c_k < best_cost))
            )
            best_depth[better] = d_k[better]
            best_cost[better] = c_k[better]
            winner[better] = pid

        # Pruned-set bitmask: pruned plans join attempted/exhausted, so
        # rows with different pruned sets diverge discretely.
        bits = (pruned @ (1 << np.arange(P, dtype=np.int64))).astype(np.int64)

        fallback = winner < 0
        if fallback.any():
            self._fallback(
                cohort, children, rows[fallback], qrun[fallback],
                total[fallback], dom[fallback], flat[fallback],
                pruned[fallback], plan_list, tables, budget,
            )

        active = ~fallback
        if not active.any():
            return
        may_cross = cid + 1 < len(self.bouquet.contours)
        # Group spill executions by (pruned bitmask, winner) — the spill
        # itself only depends on the winner, but the pruned set feeds the
        # child cohorts' attempted/exhausted state.
        pair = np.stack([bits, winner], axis=1)
        for b_val, w_val in sorted({tuple(p) for p in pair[active].tolist()}):
            sel = active & (bits == b_val) & (winner == w_val)
            self._execute_spill(
                cohort, children, sel, rows, qrun, total,
                int(w_val), int(b_val), plan_list, unlearned, budget, may_cross,
            )

    def _execute_spill(
        self, cohort, children, sel, rows, qrun, total,
        plan_id, bits, plan_list, unlearned, budget, may_cross,
    ) -> None:
        coster = self.cache.coster
        cid = cohort.cid
        rows_sel = rows[sel]
        answered, exact_mask, spent, learned, target_dims = coster.run_spilled(
            plan_id, budget, unlearned, self._at_truth, rows_sel
        )
        qrun_new = qrun[sel].copy()
        for col, j in enumerate(target_dims):
            qrun_new[:, j] = np.maximum(qrun_new[:, j], learned[:, col])
        total_new = total[sel] + spent

        # Spill-to-store completions: the resumed plan finished under the
        # budget, answering the query — these locations are done (direct
        # writes, like the fallback winners).
        if answered.any():
            self._out[rows_sel[answered]] = total_new[answered]
        remaining = ~answered
        if not remaining.any():
            return

        # Early contour change (Figure 13's last step): the learned
        # location already prices at/above this contour's budget (asked
        # of the unanswered rows, when there is a contour to change to).
        crossed = np.zeros(len(rows_sel), dtype=bool)
        if may_cross:
            crossed[remaining] = coster.optimal_estimate(qrun_new[remaining]) >= budget

        pruned_plans = frozenset(
            pid for k, pid in enumerate(plan_list) if bits >> k & 1
        )
        for exact_spill in (True, False):
            kind_mask = remaining & (exact_mask == exact_spill)
            if not kind_mask.any():
                continue
            exact2 = cohort.exact
            if exact_spill and target_dims:
                exact2 = cohort.exact | set(target_dims)
            attempted2 = cohort.attempted | pruned_plans | {plan_id}
            # A non-answering spill always consumed the full budget, so
            # the plan is proven unable to complete under it (PCM).
            exhausted2 = cohort.exhausted | pruned_plans | {plan_id}
            for crs in (True, False):
                mask = kind_mask & (crossed == crs)
                if not mask.any():
                    continue
                if crs:
                    children.append(
                        self._child(
                            mask, qrun_new, total_new, rows_sel,
                            cid=cid + 1, exact=exact2,
                            attempted=frozenset(), exhausted=frozenset(),
                        )
                    )
                else:
                    children.append(
                        self._child(
                            mask, qrun_new, total_new, rows_sel,
                            cid=cid, exact=exact2,
                            attempted=attempted2, exhausted=exhausted2,
                        )
                    )

    # -- no-productive-candidate fallback -------------------------------

    def _fallback(
        self, cohort, children, rows, qrun, total, dom, flat,
        pruned, plan_list, tables, budget,
    ) -> None:
        """Nothing left to learn on this contour: run the dominating
        resident plans fully (cheapest at q_run first), pruning plans
        already beyond the budget at q_run; cross if none completes."""
        coster = self.cache.coster
        cache = self.bouquet.cost_cache
        cid = cohort.cid
        n = len(rows)
        Pc = len(tables.plan_ids)
        costq = np.full((n, Pc), np.inf)
        eligible = np.zeros((n, Pc), dtype=bool)
        col_of = {pid: k for k, pid in enumerate(plan_list)}
        at_qrun = coster.context(qrun)
        for j, pid in enumerate(tables.plan_ids):
            r = dom[:, j].copy()
            if pid in cohort.exhausted:
                r[:] = False
            k = col_of.get(pid)
            if k is not None:
                r &= ~pruned[:, k]
            if r.any():
                costq[r, j] = coster.cost(coster.plan(pid).estimate(at_qrun).cost, n)[r]
            eligible[:, j] = r
        runnable = eligible & (costq <= budget * (1.0 + 1e-9))
        fields = cache.cost_arrays(tables.plan_ids)
        true_cost = np.empty((n, Pc))
        for j, pid in enumerate(tables.plan_ids):
            true_cost[:, j] = fields[pid].ravel()[flat]
        completes = runnable & (true_cost <= budget)

        # First completer in ascending (cost-at-q_run, plan id) order.
        win_cost = np.full(n, np.inf)
        win_col = np.full(n, -1, dtype=np.int64)
        for j in range(Pc):
            c = np.where(completes[:, j], costq[:, j], np.inf)
            better = c < win_cost
            win_cost[better] = c[better]
            win_col[better] = j
        has_winner = win_col >= 0
        if has_winner.any():
            # Failed attempts before the winner — ascending (cost-at-
            # q_run, plan id) — each burn the budget.
            cols = np.arange(Pc, dtype=np.int64)
            before = runnable & (
                (costq < win_cost[:, None])
                | ((costq == win_cost[:, None]) & (cols[None, :] < win_col[:, None]))
            )
            fails = before.sum(axis=1)
            w = np.where(has_winner, win_col, 0)
            final = true_cost[np.arange(n), w]
            done = has_winner
            self._out[rows[done]] = (
                total[done] + budget * fails[done] + final[done]
            )
        failed = ~has_winner
        if failed.any():
            total_after = total + budget * runnable.sum(axis=1)
            children.append(
                self._child(
                    failed, qrun, total_after, rows,
                    cid=cid + 1, exact=cohort.exact,
                    attempted=frozenset(), exhausted=frozenset(),
                )
            )
