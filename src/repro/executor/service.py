"""Bridging the bouquet driver to the real execution engine.

:class:`RealExecutionService` implements the
:class:`~repro.core.runtime.ExecutionService` protocol on top of
:class:`~repro.executor.engine.ExecutionEngine`, including run-time
selectivity monitoring (§5.2): after each spilled execution, the error
node's tuple counter is divided by the product of its (error-free, hence
exactly knowable) input cardinalities, yielding a safe lower bound for
the error selectivity — exact once the node finishes.

What the data's own indexes can *count* is not discovered that way at
all: :meth:`RealExecutionService.known_selectivities` measures every
base-table selection dimension before the first contour, so the driver
only ever executes to learn join dimensions.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..catalog.schema import IndexInfo
from ..core.bouquet import PlanBouquet
from ..core.runtime import (
    ExecutionOutcome,
    ExecutionService,
    KnownSelectivities,
    LearnedSelectivity,
)
from ..datagen.database import RowCount
from ..exceptions import ExecutionError
from ..optimizer.plans import IndexLookup, IndexScan, Join, PlanNode, SeqScan
from ..query.predicates import SelectionPredicate
from ..query.query import Query
from .engine import BoundPlan, ExecutionEngine


def _no_cancel(cancel: None) -> None:
    if cancel is not None:
        raise ExecutionError("executions cannot be cancelled")


class RealExecutionService(ExecutionService):
    """Executes bouquet plans for real, against generated data."""

    def __init__(self, bouquet: PlanBouquet, engine: ExecutionEngine):
        self.bouquet = bouquet
        self.engine = engine
        self.query: Query = bouquet.space.query
        self._dim_pids = {dim.pid for dim in bouquet.space.dimensions}
        #: Trace of (plan_id, spilled, rows) for analysis/tests.
        self.history: List[Tuple[int, bool, int]] = []
        self._bound: Optional[Tuple[ExecutionEngine, Dict[int, BoundPlan]]] = None

    # ------------------------------------------------------------------

    def _plan(self, plan_id: int) -> BoundPlan:
        """The plan bound to the engine's data: once per (bouquet,
        dataset, cost model), kept in the bouquet's record
        (:meth:`~repro.core.bouquet.Measured.plans`)."""
        engine = self.engine
        if self._bound is None or self._bound[0] is not engine:
            record = self.bouquet.measured_on(engine.database.fingerprint())
            self._bound = (engine, record.plans(engine.database, engine.cost_model))
        bound = self._bound[1]
        plan = bound.get(plan_id)
        if plan is None:
            plan = bound[plan_id] = engine.bind(self.query, self.bouquet.registry.plan(plan_id))
        return plan

    def run_full(
        self, plan_id: int, budget: float, cancel: None = None
    ) -> ExecutionOutcome:
        """``cancel`` (here and on :meth:`run_spilled`) is no part of the
        protocol: the ledger's timing proxy (``ledger/workloads/serving.py``,
        kept byte-frozen) still forwards ``cancel=None``, so the keyword
        stays and only ``None`` passes."""
        _no_cancel(cancel)
        plan = self._plan(plan_id)
        result = self.engine.execute(self.query, plan, budget=budget)
        self.history.append((plan_id, False, result.rows))
        return ExecutionOutcome(
            completed=result.completed,
            cost_spent=result.spent,
            result_rows=result.rows if result.completed else None,
        )

    def run_spilled(
        self,
        plan_id: int,
        budget: float,
        unlearned_pids: FrozenSet[str],
        cancel: None = None,
    ) -> ExecutionOutcome:
        _no_cancel(cancel)
        plan = self._plan(plan_id)
        result, node = self.engine.execute_spilled(
            self.query, plan, unlearned_pids, budget=budget
        )
        self.history.append((plan_id, True, result.rows))
        if node is None:
            # No unlearned error node: behaves like a full run.
            return ExecutionOutcome(
                completed=result.completed,
                cost_spent=result.spent,
                result_rows=result.rows if result.completed else None,
            )
        learned = self._learn(node, result, unlearned_pids)
        # "completed" means the query was answered: the spill-to-store
        # resume ran the whole plan within the budget.  Exactness of the
        # learning is a separate fact — the spill node may have finished
        # even when the resumed plan later hit the cost horizon.
        return ExecutionOutcome(
            completed=result.completed,
            cost_spent=result.spent,
            learned=learned,
            result_rows=result.rows if result.completed else None,
        )

    # ------------------------------------------------------------------
    # Selectivity probes: what the indexes can count needs no execution
    # ------------------------------------------------------------------

    def known_selectivities(self) -> KnownSelectivities:
        """Every selection dimension, measured through the database's
        indexes — the very quantity :meth:`_learn` reports once a scan
        over the predicate finishes: rows passing it and the table's
        error-free selections, over rows passing the error-free ones,
        floored at ``dim.lo``.  Several dimensions on one table are
        pinned by the chain rule in dimension order, so their product is
        the joint fraction the scan emits.  Join dimensions stay unknown.

        Each count that involves an error predicate is charged
        (:meth:`_probe_cost`); the error-free denominator is the cached,
        uncharged fact it already is for :meth:`_learn`.

        The counts are facts about the data: taken once per (bouquet,
        dataset) and kept in the bouquet's record
        (:meth:`~repro.core.bouquet.PlanBouquet.measured_on`), while each
        request is still charged, and counted, for the probes it starts
        from.
        """
        record = self.bouquet.measured_on(self.engine.database.fingerprint())
        model = self.engine.cost_model
        if record.known is None or record.known[0] != model:
            record.known = (model, self._probe())
        known = record.known[1]
        tracer = self.engine.tracer
        if known.learned and tracer.enabled:
            tracer.count("executor.selectivity_probes", len(known.learned))
        return known

    def _probe(self) -> KnownSelectivities:
        """:meth:`known_selectivities` measured: every selection dimension
        counted through the indexes."""
        learned: List[LearnedSelectivity] = []
        cost = 0.0
        builds = self.engine.database.index_builds
        # Per table: the selections counted so far and the rows passing them.
        given: Dict[str, List[SelectionPredicate]] = {}
        rows: Dict[str, float] = {}
        for dim in self.bouquet.space.dimensions:
            pred = self.query.predicate(dim.pid)
            if not isinstance(pred, SelectionPredicate):
                continue
            table = pred.table
            if table not in given:
                given[table] = [
                    sel
                    for sel in self.query.selections_on(table)
                    if sel.pid not in self._dim_pids
                ]
                rows[table] = self._filtered_table_cardinality(
                    table, tuple(sorted(sel.pid for sel in given[table]))
                )
            given[table].append(pred)
            denominator = rows[table]
            count = self._count(table, given[table])
            cost += self._probe_cost(table, given[table], count)
            rows[table] = count.rows
            value = max(count.rows / denominator, dim.lo) if denominator else dim.lo
            learned.append(LearnedSelectivity(dim.pid, float(value), exact=True))
        built = self.engine.database.index_builds - builds
        if built and self.engine.tracer.enabled:
            self.engine.tracer.count("executor.index_builds", built)
        return KnownSelectivities(tuple(learned), cost)

    def _count(self, table: str, preds: Sequence[SelectionPredicate]) -> RowCount:
        return self.engine.database.count_rows(
            table, [(pred.column, pred.op, pred.value) for pred in preds]
        )

    def _probe_cost(
        self, table: str, preds: Sequence[SelectionPredicate], count: RowCount
    ) -> float:
        """What a count is charged, in the cost model's own scan terms:
        the work done — a B-tree descent per index range, and each row
        fetched to test co-located predicates as an index scan charges a
        matched row with the others as residuals — but never more than
        counting by a sequential scan, which is how anyone would count
        on a table too small or a range too wide for the index to pay."""
        model = self.engine.cost_model
        info = self.engine.schema.table(table)
        index = IndexInfo.for_table(info, preds[0].column)
        by_index = (
            count.descents * index.height * model.random_page_cost
            + (count.fetched / max(1, info.row_count)) * index.leaf_pages * model.seq_page_cost
            + count.fetched
            * (
                model.cpu_index_tuple_cost
                + model.random_page_cost
                + model.cpu_tuple_cost
                + (len(preds) - 1) * model.cpu_operator_cost
            )
        )
        by_scan = info.pages * model.seq_page_cost + info.row_count * (
            model.cpu_tuple_cost + len(preds) * model.cpu_operator_cost
        )
        return min(by_index, by_scan)

    # ------------------------------------------------------------------
    # Selectivity monitoring (§5.2)
    # ------------------------------------------------------------------

    def _learn(
        self, node: PlanNode, result, unlearned_pids: FrozenSet[str]
    ) -> List[LearnedSelectivity]:
        target_pids = sorted((node.local_pids & unlearned_pids) & self._dim_pids)
        if len(target_pids) != 1:
            # Joint multi-predicate learning cannot be decomposed safely
            # into per-dimension lower bounds; skip (the budget-doubling
            # progression still guarantees termination).
            return []
        pid = target_pids[0]
        tuples_out = result.instrumentation.tuples_out(node)
        exact = result.instrumentation.finished(node)
        denominator = self._denominator(node)
        if denominator <= 0:
            return []
        dim = next(d for d in self.bouquet.space.dimensions if d.pid == pid)
        value = max(tuples_out / denominator, dim.lo)
        return [LearnedSelectivity(pid, float(value), exact=exact)]

    def _denominator(self, node: PlanNode) -> float:
        """Product of the error node's input cardinalities.

        All inputs of the *first* error node are error-free subtrees, so
        their cardinalities are exactly knowable; they are measured once
        per dataset — a subtree's by executing it, kept by the bouquet
        (:meth:`~repro.core.bouquet.PlanBouquet.measured_on`), a filtered
        table's by the database's own count memo.
        """
        if isinstance(node, Join):
            left = self._subtree_cardinality(node.left)
            if node.algo == "inl":
                # The inner's residual filters may themselves be error
                # dims (they are local to this join); the denominator
                # must only bake in the error-free ones — like the scan
                # branch below — so the measured ratio stays a valid
                # per-dimension lower bound.
                inner: IndexLookup = node.right  # type: ignore[assignment]
                error_free = tuple(
                    pid for pid in inner.filter_pids if pid not in self._dim_pids
                )
                right = self._filtered_table_cardinality(inner.table, error_free)
            else:
                right = self._subtree_cardinality(node.right)
            return left * right
        if isinstance(node, (SeqScan, IndexScan)):
            # The error predicate sits on a scan; the denominator is the
            # table cardinality filtered by the *other* (error-free) preds.
            other = [
                pid
                for pid in node.local_pids
                if pid not in self._dim_pids
            ]
            return self._filtered_table_cardinality(node.table, tuple(sorted(other)))
        raise ExecutionError(f"cannot compute denominator for {node.signature()}")

    def _subtree_cardinality(self, node: PlanNode) -> float:
        """Exact output cardinality of an error-free subtree, executed
        once per (bouquet, dataset)."""
        memo = self.bouquet.measured_on(self.engine.database.fingerprint()).subtree_rows
        key = node.signature()
        rows = memo.get(key)
        if rows is None:
            rows = memo[key] = float(self.engine.execute(self.query, node, budget=None).rows)
        return rows

    def _filtered_table_cardinality(self, table: str, filter_pids) -> float:
        preds = [self.query.predicate(pid) for pid in filter_pids]
        for pred in preds:
            if not isinstance(pred, SelectionPredicate):
                raise ExecutionError(f"pid {pred.pid!r} is not a selection")
        return float(self._count(table, preds).rows)
