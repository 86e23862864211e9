"""Optimizer facade: optimize a query at any selectivity point.

This is the "optimizer with selectivity injection" of §4.2.  The facade
owns a per-query :class:`~repro.optimizer.joinorder.JoinEnumerator` cache
and a :class:`PlanRegistry` so structurally identical plans returned at
different ESS points share one identity (P1, P2, ...), exactly as in the
paper's POSP figures.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..catalog.schema import Schema
from ..catalog.statistics import DatabaseStatistics
from ..exceptions import OptimizerError
from ..obs.tracer import NULL_TRACER, Tracer
from ..query.query import Query
from .cost_model import POSTGRES_COST_MODEL, CostModel
from .joinorder import JoinEnumerator
from .plans import PlanNode
from .selectivity import (
    SelectivityAssignment,
    estimate_selectivities,
    inject,
)

if TYPE_CHECKING:
    from ..batchopt.kernel import BatchPlanChoice


@dataclass
class OptimizedPlan:
    """Result of one optimizer call."""

    plan: PlanNode
    cost: float
    rows: float
    plan_id: int
    signature: str

    @property
    def label(self) -> str:
        return f"P{self.plan_id}"


class PlanRegistry:
    """Assigns small stable integer ids to distinct plan signatures.

    Structurally identical plans registered from different ESS grid
    locations (by a slab or one location at a time) deduplicate onto one id
    via the plan's canonical signature, which keeps POSP sets and the
    anorexic-reduction input small.  The registry is shared by parallel
    compile workers, so registration and lookup are guarded by a lock;
    ids are assigned strictly in first-registration order, which is what
    makes a slab and a loop of one-location calls produce identical id
    maps.
    """

    def __init__(self):
        self._ids: Dict[str, int] = {}
        self._plans: Dict[int, PlanNode] = {}
        self._lock = threading.Lock()

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def register(self, plan: PlanNode) -> Tuple[int, str]:
        signature = plan.canonical_signature()
        with self._lock:
            plan_id = self._ids.get(signature)
            if plan_id is None:
                plan_id = len(self._ids) + 1
                self._ids[signature] = plan_id
                self._plans[plan_id] = plan
        return plan_id, signature

    def register_slab(self, plans: Sequence[PlanNode], winner) -> np.ndarray:
        """Plan id per slab location, given the slab's distinct winners
        and ``winner[i]``, the index into ``plans`` of location ``i``'s.

        Plans register in order of first appearance along the slab — the
        order a loop of one-location calls over the same locations would
        have registered them in.
        """
        used, first = np.unique(winner, return_index=True)
        ids = np.zeros(len(plans), dtype=np.int64)
        for index in used[np.argsort(first)].tolist():
            ids[index], _ = self.register(plans[index])
        return ids[winner]

    def plan(self, plan_id: int) -> PlanNode:
        with self._lock:
            try:
                return self._plans[plan_id]
            except KeyError:
                raise OptimizerError(f"unknown plan id {plan_id}") from None

    def __len__(self):
        with self._lock:
            return len(self._ids)

    @property
    def plan_ids(self) -> List[int]:
        with self._lock:
            return sorted(self._plans)


class Optimizer:
    """Cost-based optimizer with selectivity injection.

    Parameters
    ----------
    schema:
        Catalog the queries run against.
    statistics:
        Optimizer statistics used for the *estimated* (non-injected)
        selectivities.  May be ``None``, in which case magic numbers apply.
    cost_model:
        Cost constants; swap in ``COMMERCIAL_COST_MODEL`` for the COM engine.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; every ``optimize``
        call is counted and timed, enumerator/registry cache behaviour is
        counted.  Defaults to the zero-overhead null tracer.
    """

    def __init__(
        self,
        schema: Schema,
        statistics: Optional[DatabaseStatistics] = None,
        cost_model: CostModel = POSTGRES_COST_MODEL,
        tracer: Optional[Tracer] = None,
    ):
        self.schema = schema
        self.statistics = statistics
        self.cost_model = cost_model
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._enumerators: Dict[str, JoinEnumerator] = {}
        self._registries: Dict[str, PlanRegistry] = {}

    def __getstate__(self):
        # Tracers hold sinks (possibly open files); they degrade to the
        # null tracer across process boundaries.
        state = self.__dict__.copy()
        state["tracer"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        if self.tracer is None:
            self.tracer = NULL_TRACER

    # ------------------------------------------------------------------

    def registry(self, query: Query) -> PlanRegistry:
        """Plan registry shared by every optimization of ``query``."""
        key = query.fingerprint
        registry = self._registries.get(key)
        if registry is None:
            registry = PlanRegistry()
            self._registries[key] = registry
        return registry

    def _enumerator(self, query: Query) -> JoinEnumerator:
        key = query.fingerprint
        enum = self._enumerators.get(key)
        if enum is None:
            enum = JoinEnumerator(query, self.schema)
            self._enumerators[key] = enum
            if self.tracer.enabled:
                self.tracer.count("optimizer.enumerator_builds")
        elif self.tracer.enabled:
            self.tracer.count("optimizer.enumerator_cache_hits")
        return enum

    # ------------------------------------------------------------------

    def estimated_assignment(self, query: Query) -> SelectivityAssignment:
        """The native optimizer's estimated selectivities for the query."""
        return estimate_selectivities(query, self.statistics)

    def optimize(
        self,
        query: Query,
        assignment: Optional[Mapping[str, float]] = None,
        injected: Optional[Mapping[str, float]] = None,
    ) -> OptimizedPlan:
        """Find the cheapest plan.

        ``assignment`` supplies a full pid -> selectivity map; if omitted,
        estimated selectivities are used.  ``injected`` overrides specific
        pids on top of that base (the injection API of §4.2).  The search
        is :meth:`optimize_slab`'s DP over a one-location slab: every
        column a float, so the DP runs on plain floats.
        """
        tracer = self.tracer
        t0 = time.perf_counter() if tracer.enabled else 0.0
        if assignment is None:
            assignment = self.estimated_assignment(query)
        if injected:
            assignment = inject(assignment, injected)
        choice = self._best_plans(query, assignment, 1)
        (plan,) = choice.plans
        plan_id, signature = self.registry(query).register(plan)
        if tracer.enabled:
            tracer.count("optimizer.calls")
            tracer.observe("optimizer.latency", time.perf_counter() - t0)
        return OptimizedPlan(
            plan=plan,
            cost=float(choice.cost[0]),
            rows=float(choice.rows[0]),
            plan_id=plan_id,
            signature=signature,
        )

    def optimize_batch(
        self,
        query: Query,
        assignments: Sequence[Mapping[str, float]],
    ) -> List[OptimizedPlan]:
        """Find the cheapest plan at every assignment of a slab at once.

        The list-shaped front of :meth:`optimize_slab`:
        ``optimize_batch(A)[i]`` equals ``optimize(query, A[i])`` — same
        plan id, same cost — for every ``i``.
        """
        from ..batchopt.kernel import stack_assignments

        if not assignments:
            return []
        choice, plan_ids = self.optimize_slab(query, *stack_assignments(assignments))
        plans = choice.plans
        signatures = [plan.canonical_signature() for plan in plans]
        return [
            OptimizedPlan(
                plan=plans[index],
                cost=cost,
                rows=rows,
                plan_id=plan_id,
                signature=signatures[index],
            )
            for index, cost, rows, plan_id in zip(
                choice.winner.tolist(),
                choice.cost.tolist(),
                choice.rows.tolist(),
                plan_ids.tolist(),
            )
        ]

    def optimize_slab(
        self, query: Query, columns: Mapping[str, object], length: int
    ) -> Tuple["BatchPlanChoice", np.ndarray]:
        """Find the cheapest plan at every location of a slab, as arrays.

        ``columns`` maps each pid to a float (constant over the slab) or
        to an array of per-location selectivities; the arrays broadcast
        to a slab of ``length`` locations (1-D columns of that length, or
        ``SelectivitySpace.grid_columns``' axes).  Runs the DPsize
        enumeration **once** while carrying a numpy cost axis over the
        slab (:mod:`repro.batchopt`) and returns the kernel's
        :class:`~repro.batchopt.BatchPlanChoice` (distinct winning plans,
        per-location winner index, cost and rows, in row-major order)
        with the per-location plan ids.  Plans are registered in slab
        order, so a slab compile assigns the same plan ids a loop of
        :meth:`optimize` calls over the same location order would.
        """
        tracer = self.tracer
        t0 = time.perf_counter() if tracer.enabled else 0.0
        choice = self._best_plans(query, columns, length)
        plan_ids = self.registry(query).register_slab(choice.plans, choice.winner)
        if tracer.enabled:
            tracer.count("optimizer.batch_calls")
            tracer.count("optimizer.batched_locations", length)
            tracer.count("batchopt.slabs")
            tracer.count("batchopt.locations", length)
            tracer.count("batchopt.frontier_plans", choice.frontier_size)
            tracer.observe("optimizer.batch_latency", time.perf_counter() - t0)
        return choice, plan_ids

    def _best_plans(
        self, query: Query, columns: Mapping[str, object], length: int
    ) -> "BatchPlanChoice":
        from ..batchopt.kernel import batch_best_plans, validate_columns

        shape = validate_columns(query, columns, length)
        return batch_best_plans(self._enumerator(query), self.cost_model, columns, shape)
