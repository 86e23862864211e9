"""The sweep's costing: :class:`BatchCoster`.

The sweep (:mod:`repro.sweep.engine`) carries every per-location
quantity (``q_run``, accumulated cost, spilled reach) in numpy arrays,
one row per location.  What the optimized driver's decisions
(:mod:`repro.core.runtime`) read is costed here, over a batch of
continuous ``q_run`` rows: the plan cost formulas already evaluate
elementwise over arrays (see :mod:`repro.optimizer.plans`), so a whole
round is costed in one tree walk.  A context is built where ``q_run`` is
set — at the origin, and over the rows a round's spills leave to go on —
and every later round of those rows gathers from the estimates it
memoised (:func:`~repro.core.runtime._at`) instead of costing again.
The spills themselves are :func:`repro.core.runtime.spill`, the one
spill model the per-location driver runs on one row.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from ..core.bouquet import PlanBouquet
from ..core.runtime import _filled
from ..optimizer.plans import CostContext, PlanNode, first_error_node

__all__ = ["BatchCoster"]


class BatchCoster:
    """Vectorized plan costing over location batches."""

    def __init__(self, bouquet: PlanBouquet):
        self.bouquet = bouquet
        self.space = bouquet.space
        cache = bouquet.cost_cache
        self.schema = cache.optimizer.schema
        self.model = cache.optimizer.cost_model
        self.registry = bouquet.registry
        self.dims = self.space.dimensions
        self.base = dict(self.space.base_assignment)
        #: Batched costings (telemetry: one per plan or subtree asked for
        #: over a batch; what its context has already costed is not
        #: walked again).
        self.batched_costings = 0
        self._plans: Dict[int, PlanNode] = {}
        self._spill_nodes: Dict[Tuple[int, FrozenSet[str]], Optional[PlanNode]] = {}

    # -- plan metadata --------------------------------------------------

    def plan(self, plan_id: int) -> PlanNode:
        node = self._plans.get(plan_id)
        if node is None:
            node = self._plans[plan_id] = self.registry.plan(plan_id)
        return node

    def spill_node(self, plan_id: int, unlearned: FrozenSet[str]) -> Optional[PlanNode]:
        """The node a spill of the plan stops at (None if it runs fully)."""
        key = (plan_id, unlearned)
        if key not in self._spill_nodes:
            self._spill_nodes[key] = first_error_node(self.plan(plan_id), unlearned)
        return self._spill_nodes[key]

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
        """The ``cost`` of one node's batched ``estimate`` over ``n``
        rows: the estimate's own array — read-only when a context
        memoised it, which is what keeps a caller from writing to it — or
        a constant filled out."""
        self.batched_costings += 1
        return _filled(value, n)
