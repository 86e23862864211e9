"""The sweep's costing and execution: :class:`BatchCoster`.

The sweep (:mod:`repro.sweep.engine`) carries every per-location
quantity (``q_run``, accumulated cost, spilled reach) in numpy arrays,
one row per location.  What the optimized driver's decisions
(:mod:`repro.core.runtime`) read is costed here, over a batch of
continuous ``q_run`` rows: the plan cost formulas already evaluate
elementwise over arrays (see :mod:`repro.optimizer.plans`), so a whole
round is costed in one tree walk.  A context is built where ``q_run`` is
set — at the origin, and over the rows a round's spills leave to go on —
and every later round of those rows gathers from the estimates it
memoised (:func:`_at`) instead of costing again.  The batched spill-mode
execution is here too
(:meth:`~repro.core.runtime.AbstractExecutionService.run_spilled` on many
rows at once: the same search for the last 2**-40 grid point
under the budget, moving the spill node's own formula over inputs
gathered from the sweep's one costing of the truth), in the scalar
service's arithmetic, so the engine's field agrees with the per-location
driver to float noise.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from ..core.bouquet import PlanBouquet
from ..core.runtime import reach_under_budget
from ..optimizer.plans import (
    CostContext,
    NodeEstimate,
    PlanNode,
    first_error_node,
    formula_inputs,
    own_formula,
)

__all__ = ["BatchCoster"]


def _at(value, rows: np.ndarray):
    """``value`` at ``rows``: a per-row array gathered, a constant as it is."""
    return value[rows] if np.ndim(value) else value


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
        #: formula asked for over a batch; what its context has already
        #: costed is not walked again).
        self.batched_costings = 0
        #: Of those, evaluations of a spill node's own formula.
        self.spill_evaluations = 0
        self._plans: Dict[int, PlanNode] = {}
        # (plan_id, unlearned) -> (first error node | None, target dim idxs)
        self._spill_nodes: Dict[Tuple[int, FrozenSet[str]], Tuple[Optional[PlanNode], Tuple[int, ...]]] = {}

    # -- plan metadata --------------------------------------------------

    def plan(self, plan_id: int) -> PlanNode:
        node = self._plans.get(plan_id)
        if node is None:
            node = self._plans[plan_id] = self.registry.plan(plan_id)
        return node

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

    def context(self, values: np.ndarray) -> CostContext:
        """One costing context at a batch of continuous rows; everything
        costed in it shares its memo, sub-tree by sub-tree.

        Mirrors :meth:`SelectivitySpace.assignment_for`: every error dim
        is clamped into ``[lo, hi]``; non-error pids keep their base
        scalars."""
        assignment: Dict[str, object] = dict(self.base)
        for j, dim in enumerate(self.dims):
            assignment[dim.pid] = np.minimum(dim.hi, np.maximum(dim.lo, values[:, j]))
        return CostContext(self.schema, self.model, assignment)

    def cost(self, value, n: int) -> np.ndarray:
        """The ``cost`` of one batched evaluation (a node's ``estimate``
        or its own formula) over ``n`` rows: the estimate's own array —
        read-only when a context memoised it, which is what keeps a
        caller from writing to it — or a constant filled out."""
        self.batched_costings += 1
        return value if np.ndim(value) else np.full(n, value, dtype=float)

    # -- batched spill-mode execution -----------------------------------

    def run_spilled(
        self,
        plan_id: int,
        budget: float,
        unlearned: FrozenSet[str],
        at_truth: CostContext,
        rows: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Tuple[int, ...]]:
        """Batched :meth:`AbstractExecutionService.run_spilled`.

        ``at_truth`` is the sweep's one context over the clamped true
        selectivities of its locations (what a spill reads there is
        costed once per sweep); ``rows`` index the batch in it.  Returns
        ``(answered, exact, cost_spent, learned, target_dims)``:
        ``answered`` rows completed the *query* (the spill-to-store
        resume fit the budget, spending the plan's true cost); ``exact``
        rows resolved the spilled subtree — exact learning — but the
        resumed plan consumed the whole budget; all other rows charge
        the budget and learn the last 2**-40 grid point whose cost fits
        it (:func:`~repro.core.runtime.reach_under_budget`).
        ``learned`` has one column per target dim.
        """
        n = len(rows)
        node, target_dims = self.spill_node(plan_id, unlearned)
        plan_full = self.cost(_at(self.plan(plan_id).estimate(at_truth).cost, rows), n)
        # Spill-to-store: the plan fits the budget -> the query is
        # answered; only the subtree fits -> exact learning, full budget.
        answered = plan_full <= budget
        spent = np.where(answered, plan_full, budget)
        if node is None:
            # No error-prone node: degenerate to a full run at the truth.
            return answered, np.zeros(n, dtype=bool), spent, np.empty((n, 0)), ()

        lows = {self.dims[j].pid: self.dims[j].lo for j in target_dims}

        def spill(rows: np.ndarray):
            # The spilled subtree over ``rows``, as functions of ``t``:
            # where the targets stand and what it costs.  Nothing below
            # the first error node reads an unlearned pid, so its inputs
            # are gathered from the truth and only the node's own
            # formula (it reads its local pids only) moves with ``t``.
            # _geometric_interp(lo, truth, t) = truth if truth <= lo
            # else lo * (truth / lo) ** t.
            formula = own_formula(node, [
                e and NodeEstimate(_at(e.rows, rows), _at(e.cost, rows))
                for e in formula_inputs(node, at_truth)
            ])
            truth = {pid: _at(at_truth.selectivity(pid), rows) for pid in node.local_pids}

            def reached(t: np.ndarray) -> Dict[str, np.ndarray]:
                return {
                    pid: np.where(truth[pid] <= lo, truth[pid], lo * (truth[pid] / lo) ** t)
                    for pid, lo in lows.items()
                }

            def cost_at(t: np.ndarray) -> np.ndarray:
                self.spill_evaluations += 1
                ctx = CostContext(self.schema, self.model, {**truth, **reached(t)})
                return self.cost(formula(ctx).cost, len(rows))

            return truth, reached, cost_at

        truth, _reached, cost_at = spill(rows)
        subtree_full = cost_at(np.ones(n))
        exact = ~answered & (subtree_full <= budget)
        learned = np.stack([truth[pid] for pid in lows], axis=1)
        short = ~answered & ~exact
        if short.any():
            # The rows that stop short are gathered once, not per probe.
            truth, reached, cost_at = spill(rows[short])
            spread = sum(np.log(np.maximum(truth[pid] / lo, 1.0)) for pid, lo in lows.items())
            lo_t = reach_under_budget(cost_at, budget, subtree_full[short], spread)
            learned[short] = np.stack(list(reached(lo_t).values()), axis=1)
        return answered, exact, spent, learned, target_dims
