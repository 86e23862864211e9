"""The round-stepping sweep engine.

:class:`SweepEngine` computes the optimized-bouquet total cost at many
ESS locations at once.  Every location is one *row* of an array state —
``q_run`` ``(n, D)``, the cost charged, its contour and its round on
that contour, the dimensions learned exactly ``(n, D)``, the plans
attempted and exhausted on the contour ``(n, |B|)``, and the costing
context its ``q_run`` was costed in — advanced through Figure 13 by the
decision functions :meth:`repro.core.runtime.BouquetRunner._move`
asks (:func:`~repro.core.runtime.dominating`,
:func:`~repro.core.runtime.axis_plans`, :func:`~repro.core.runtime.pick`,
…), about many rows at once:

1. every row starts on the first contour with ``q_run = (lo, …, lo)``,
   costed in a one-row context at the origin;
2. a *round* takes every live row with the smallest (contour, spills
   taken on it) key.  A row's next key is always larger — it crosses
   to the next contour, or spills and takes one more round on this
   one — so the smallest key's rows are all the rows that can reach it;
3. the round gathers what the decisions read (spill floors per pattern
   of exact dimensions, candidate and full-run costs) from the contexts
   the rows' ``q_run`` were costed in, spills once per (winner, exact
   pattern) — the reach is searched for all its rows at once over a
   truth the sweep costs once — and builds one context over the rows
   its spills leave to go on, which the early-crossing check and their
   later rounds gather from.

Full runs need no per-location loop: once nothing is left to learn on a
contour, the plans the endgame or the fallback order runs are costed at
the truth the spills read — the first that fits the budget answers,
every one before it burns the budget, and with none the contour is
crossed.

Costing is the engine's own; every decision and the spill
(:func:`~repro.core.runtime.spill`) are shared, and the truth's costs
are charged in the driver's order, so the fields equal the per-location
driver's bit for bit (``tests/sweep/test_sweep_engine.py::TestFieldEquality``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from ..core.bouquet import PlanBouquet
from ..core.contours import ContourTables
from ..core.runtime import (
    _at,
    axis_plans,
    book,
    crosses_early,
    dominating,
    endgame,
    exhausts,
    fallback_order,
    pick,
    pruned_by_floor,
    spill,
)
from ..ess.space import Location
from ..exceptions import BouquetError
from ..obs.tracer import Tracer
from ..optimizer.plans import PlanNode
from .memo import SweepCache, sweep_cache

__all__ = ["SweepEngine"]

#: What a sweep holds between its rounds, dropped when it ends.
_PER_SWEEP = (
    "_out", "_at_truth", "_qrun", "_total", "_cid", "_round",
    "_exact", "_attempted", "_exhausted", "_contexts", "_ctx", "_ctx_row",
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
        self._plan_ids = np.array(bouquet.plan_ids)
        self._pattern_bits = 1 << np.arange(self.D, dtype=np.int64)
        self._lows = {dim.pid: dim.lo for dim in self.space.dimensions}
        self._dim_of = {dim.pid: j for j, dim in enumerate(self.space.dimensions)}
        # Per-sweep state (set by _sweep, one row per swept location):
        for name in _PER_SWEEP:
            setattr(self, name, None)
        self._steps = self._spills = self._spill_evaluations = 0

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
            self._steps = self._spills = self._spill_evaluations = 0
            if len(todo):
                self._sweep(todo)
            span.set(
                memo_hits=hits,
                steps=self._steps,
                spills=self._spills,
                batched_costings=cache.coster.batched_costings,
            )
        return cache.totals[flat].copy()

    def _sweep(self, flat: np.ndarray) -> None:
        cache = self.cache
        coster = cache.coster
        tracer = self.tracer
        n, plans = len(flat), len(self._plan_ids)
        self._out = np.full(n, np.nan)  # NaN: the row is still running
        # One context over the truth of the swept locations (rows index
        # it): what a spill reads there is costed once.
        self._at_truth = coster.context(cache.truth[flat])
        origin = np.array([[dim.lo for dim in self.space.dimensions]])
        self._qrun = np.repeat(origin, n, axis=0)
        self._total = np.zeros(n)
        self._cid = np.zeros(n, dtype=np.int64)
        self._round = np.zeros(n, dtype=np.int64)
        self._exact = np.zeros((n, self.D), dtype=bool)
        self._attempted = np.zeros((n, plans), dtype=bool)
        self._exhausted = np.zeros((n, plans), dtype=bool)
        self._contexts = {0: coster.context(origin)}
        self._ctx = np.zeros(n, dtype=np.int64)
        self._ctx_row = np.zeros(n, dtype=np.int64)
        # Rounds never outnumber the plans on a contour: each spills one
        # plan not attempted there yet.
        stride = plans + 1
        while len(live := np.flatnonzero(np.isnan(self._out))):
            key = self._cid[live] * stride + self._round[live]
            self._step(live[key == key.min()])
            self._steps += 1
        if tracer.enabled:
            tracer.count("sweep.steps", self._steps)
            tracer.count("sweep.spills", self._spills)
            tracer.count("sweep.spill_formula_evaluations", self._spill_evaluations)
        cache.store(flat, self._out)
        for name in _PER_SWEEP:
            setattr(self, name, None)

    # ------------------------------------------------------------------
    # One round (one contour interaction of every row in it)
    # ------------------------------------------------------------------

    def _costs(
        self, rows: np.ndarray, nodes: Sequence[PlanNode], wanted: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``(rows, nodes)``: the ``wanted`` nodes' costs (all by default)
        at the rows' ``q_run``, gathered from the contexts it was costed
        in; a decision reads no other entry, left at ``inf``."""
        coster = self.cache.coster
        out = np.full((len(rows), len(nodes)), np.inf)
        ctx = self._ctx[rows]
        for c in set(ctx.tolist()):
            at, segment = self._contexts[c], ctx == c
            for k, node in enumerate(nodes):
                r = segment if wanted is None else segment & wanted[:, k]
                at_rows = self._ctx_row[rows[r]]
                if len(at_rows):
                    out[r, k] = coster.cost(_at(node.estimate(at).cost, at_rows), len(at_rows))
        return out

    def _columns(self, plans: Sequence[int]) -> np.ndarray:
        """The ``(n, |B|)`` state columns of bouquet plans ``plans``."""
        return np.searchsorted(self._plan_ids, plans)

    def _cross(self, rows: np.ndarray) -> None:
        """The rows go on to the next contour, none of whose plans is tried."""
        self._cid[rows] += 1
        self._round[rows] = 0
        self._attempted[rows] = self._exhausted[rows] = False

    def _step(self, rows: np.ndarray) -> None:
        """One round: the next contour interaction of ``rows``, which
        share one (contour, round) key."""
        cid = int(self._cid[rows[0]])
        if cid >= len(self.bouquet.contours):
            # The reference run would return completed=False here and
            # simulate_at would raise: contour coverage is broken.
            raise BouquetError(
                "sweep reached the end of the contour ladder without "
                "completing — contour coverage bug"
            )
        budget = self.budgets[cid]
        tables = self.bouquet.contour_tables(cid)
        columns = self._columns(tables.plan_ids)

        dom = dominating(tables, self._qrun[rows])
        has_dom = dom.any(axis=1)
        self._cross(rows[~has_dom])
        rows, dom = rows[has_dom], dom[has_dom]
        winner = np.full(len(rows), -1, dtype=np.int64)
        learning = ~self._exact[rows].all(axis=1)
        if learning.any():
            winner[learning] = self._pick(rows[learning], tables, columns, budget)
        # Nothing (left) to learn on this contour: run plans fully.
        full = winner < 0
        if full.any():
            eligible = dom[full] & ~self._exhausted[rows[full]][:, columns]
            self._run_fully(rows[full], eligible, tables, budget)
        if not full.all():
            self._spill(rows[~full], winner[~full], cid, budget)

    def _pick(
        self, rows: np.ndarray, tables: ContourTables, columns: np.ndarray, budget: float
    ) -> np.ndarray:
        """The plan each row spills (-1 for none), after the spill-floor
        prune, whose plans are booked attempted and exhausted."""
        coster = self.cache.coster
        exact = self._exact[rows]
        plans, present, depth = axis_plans(
            tables, self._qrun[rows], exact, self._attempted[rows][:, columns]
        )
        # What a spill runs depends on what is left to learn: floors are
        # costed per pattern of exact dimensions.
        floors = np.full(present.shape, np.inf)
        patterns, which = np.unique(exact @ self._pattern_bits, return_inverse=True)
        for p, pattern in enumerate(patterns.tolist()):
            unlearned = self._unlearned(pattern)
            subtrees = [coster.spill_node(pid, unlearned) or coster.plan(pid) for pid in plans]
            sel = which == p
            floors[sel] = self._costs(rows[sel], subtrees, present[sel])
        pruned = pruned_by_floor(floors, present, budget)
        productive = present & ~pruned
        costs = self._costs(rows, [coster.plan(pid) for pid in plans], productive)
        taken = np.zeros_like(self._attempted[rows])
        taken[:, self._columns(plans)] = pruned
        self._attempted[rows], self._exhausted[rows] = book(
            self._attempted[rows], self._exhausted[rows], taken, True, True
        )
        return pick(plans, costs, depth, productive)

    def _unlearned(self, pattern: int) -> frozenset:
        """The pids of the dimensions not in the exact ``pattern``."""
        return frozenset(
            dim.pid for d, dim in enumerate(self.space.dimensions) if not pattern >> d & 1
        )

    def _spill(self, rows: np.ndarray, winner: np.ndarray, cid: int, budget: float) -> None:
        """Each row spills its ``winner``: one execution per (winner,
        exact pattern), then one context over the rows that go on."""
        coster = self.cache.coster
        group = winner << self.D | self._exact[rows] @ self._pattern_bits
        exhausting = np.zeros(len(rows), dtype=bool)
        for key in set(group.tolist()):
            sel = group == key
            spilled = rows[sel]
            plan_id, pattern = key >> self.D, key & ((1 << self.D) - 1)
            out = spill(
                coster.plan(plan_id), self._unlearned(pattern), self._lows, budget,
                self._at_truth, spilled,
            )
            self._spills += 1
            self._spill_evaluations += out.evaluations
            self._total[spilled] += out.spent
            # Spill-to-store completions: the resumed plan finished under
            # the budget, answering the query — these rows are done.
            answered = out.answered
            self._out[spilled[answered]] = self._total[spilled[answered]]
            for col, pid in enumerate(out.targets):
                j = self._dim_of[pid]
                self._qrun[spilled, j] = np.maximum(self._qrun[spilled, j], out.learned[:, col])
                self._exact[spilled, j] |= out.exact
            exhausting[sel] = exhausts(answered, out.spent, budget)
        on = np.isnan(self._out[rows])
        going, exhausting = rows[on], exhausting[on]
        if not len(going):
            return
        won = np.zeros((len(going), len(self._plan_ids)), dtype=bool)
        won[np.arange(len(going)), self._columns(winner[on])] = True
        attempted, exhausted = book(self._attempted[going], self._exhausted[going], won, True, False)
        self._attempted[going], self._exhausted[going] = book(
            attempted, exhausted, won & exhausting[:, None], False, True
        )
        # The learned q_run gets one context, which the early-crossing
        # check and every later round of these rows read; a context no
        # running row reads any more is let go.
        fresh = max(self._contexts) + 1
        self._ctx[going], self._ctx_row[going] = fresh, np.arange(len(going))
        read = set(self._ctx[np.isnan(self._out)].tolist())
        self._contexts = {c: at for c, at in self._contexts.items() if c in read}
        self._contexts[fresh] = coster.context(self._qrun[going])
        self._round[going] += 1
        if cid + 1 < len(self.bouquet.contours):
            plans = [coster.plan(pid) for pid in self.bouquet.plan_ids]
            self._cross(going[crosses_early(self._costs(going, plans), budget)])

    def _run_fully(
        self, rows: np.ndarray, eligible: np.ndarray, tables: ContourTables, budget: float
    ) -> None:
        """Nothing (left) to learn on this contour: the rows run plans
        fully, in the order the endgame (every dimension exact) or the
        fallback decides.  A closed form over the true costs — costed
        where the driver's runs are, at the clamped truth: the first plan
        that fits the budget answers, every one before it burns the
        budget, and with none the contour is crossed."""
        coster = self.cache.coster
        plans = [coster.plan(pid) for pid in tables.plan_ids]
        costs = self._costs(rows, plans, eligible)
        order, runs = fallback_order(costs, eligible, budget)
        learned = self._exact[rows].all(axis=1)
        if learned.any():
            first, once = endgame(costs[learned], eligible[learned])
            order[learned, :1], runs[learned] = first, once
        true_cost = np.stack([
            coster.cost(_at(plan.estimate(self._at_truth).cost, rows), len(rows)) for plan in plans
        ], axis=1)
        in_order = np.take_along_axis(true_cost, order, axis=1)
        completes = (np.arange(order.shape[1]) < runs[:, None]) & (in_order <= budget)
        answered = completes.any(axis=1)
        # The completer's position in the order: how many ran before it.
        fails = completes.argmax(axis=1)
        final = in_order[np.arange(len(rows)), fails]
        # Each failed run is charged on its own, as the driver adds them.
        burnt = np.where(answered, fails, runs)
        for k in range(int(burnt.max(initial=0))):
            self._total[rows[k < burnt]] += budget
        done = rows[answered]
        self._out[done] = self._total[done] + final[answered]
        self._cross(rows[~answered])
