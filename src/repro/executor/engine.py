"""The execution engine: budget-limited, instrumented, spill-capable.

A batch-at-a-time numpy engine over the in-memory database: operators
are generators of column batches, and they read the access paths the
:class:`~repro.datagen.database.Database` owns.  Work is
charged to the :class:`~repro.executor.instrumentation.Instrumentation`
account in the *same units and formulas* as the optimizer's cost model,
so "execute under budget IC_k" is directly meaningful.  An optional
deterministic cost-perturbation models bounded cost-model error δ (§3.4).

Supported executions:

* full — run the plan to completion or until the budget kills it;
* spilled — run the subtree up to the first error-prone node, storing
  its output (§5.3, spill-to-store variant), to learn a selectivity
  cheaply; when the subtree resolves within the budget the run resumes
  the rest of the plan over the stored output, so a spilled execution
  that fits the budget answers the query outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..catalog.schema import IndexInfo
from ..datagen.database import ColumnIndex, Database
from ..exceptions import BudgetExceeded, ExecutionError
from ..obs.tracer import NULL_TRACER, Tracer
from ..optimizer.cost_model import POSTGRES_COST_MODEL, CostModel
from ..optimizer.plans import (
    Aggregate,
    IndexLookup,
    IndexScan,
    Join,
    PlanNode,
    SeqScan,
    first_error_node,
)
from ..query.predicates import JoinPredicate, SelectionPredicate
from ..query.query import Query
from .arrays import (
    Batch,
    apply_selections,
    batch_length,
    concat,
    filter_rows,
    group_counts,
    join_indices,
    merge_batches,
    qualify,
    take,
)
from .instrumentation import Instrumentation


class CostPerturbation:
    """Deterministic bounded cost-model error.

    Each node kind/signature gets a fixed multiplicative factor drawn from
    ``[1/(1+δ), 1+δ]``, so estimated and actual costs diverge by at most
    the paper's δ bound — and every run is repeatable.
    """

    def __init__(self, delta: float, seed: int = 0):
        if delta < 0:
            raise ExecutionError("delta must be non-negative")
        self.delta = delta
        self.seed = seed

    def factor(self, node: PlanNode) -> float:
        if self.delta == 0:
            return 1.0
        key = hash((node.signature(), self.seed)) & 0xFFFFFFFF
        unit = key / 0xFFFFFFFF  # deterministic in [0, 1]
        low = 1.0 / (1.0 + self.delta)
        high = 1.0 + self.delta
        return low * (high / low) ** unit


@dataclass
class ExecutionResult:
    """Outcome of one engine execution."""

    completed: bool
    rows: int
    spent: float
    instrumentation: Instrumentation
    result: Optional[Batch] = None


class ExecutionEngine:
    """Executes physical plans against a :class:`Database`."""

    def __init__(
        self,
        database: Database,
        cost_model: CostModel = POSTGRES_COST_MODEL,
        batch_size: int = 4096,
        perturbation: Optional[CostPerturbation] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.database = database
        self.schema = database.schema
        self.cost_model = cost_model
        self.batch_size = int(batch_size)
        if self.batch_size < 1:
            raise ExecutionError("batch_size must be positive")
        self.perturbation = perturbation
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def _trace_run(self, spilled: bool, result: "ExecutionResult") -> None:
        """One event per engine execution — never per batch, so the hot
        operator loops stay tracer-free."""
        tracer = self.tracer
        if not tracer.enabled:
            return
        tracer.event(
            "engine.execute",
            spilled=spilled,
            completed=result.completed,
            rows=result.rows,
            spent=result.spent,
            budget=result.instrumentation.budget,
            tuples_moved=result.instrumentation.total_tuples,
        )
        tracer.count("engine.executions")
        tracer.count("engine.tuples_moved", result.instrumentation.total_tuples)
        if not result.completed:
            tracer.count("engine.budget_exhaustions")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def execute(
        self,
        query: Query,
        plan: PlanNode,
        budget: Optional[float] = None,
        collect: bool = False,
    ) -> ExecutionResult:
        """Run ``plan`` fully (or until ``budget`` kills it)."""
        inst = Instrumentation(budget, needed_columns=needed_columns(query))
        rows = 0
        collected: List[Batch] = []
        try:
            for batch in self._run(plan, query, inst):
                rows += batch_length(batch)
                if collect:
                    collected.append(batch)
        except BudgetExceeded:
            outcome = ExecutionResult(
                completed=False,
                rows=rows,
                spent=inst.total_cost,
                instrumentation=inst,
            )
            self._trace_run(False, outcome)
            return outcome
        result = concat(collected) if collect and collected else None
        outcome = ExecutionResult(
            completed=True,
            rows=rows,
            spent=inst.total_cost,
            instrumentation=inst,
            result=result,
        )
        self._trace_run(False, outcome)
        return outcome

    def execute_spilled(
        self,
        query: Query,
        plan: PlanNode,
        spill_pids,
        budget: Optional[float] = None,
    ) -> Tuple[ExecutionResult, Optional[PlanNode]]:
        """Spill-mode run: execute up to the first node evaluating one of
        ``spill_pids``, storing its output.  If the spill node resolves
        within the budget, execution resumes the full plan over the
        stored output — ``completed`` on the returned result means the
        *query* was answered; whether the spill node itself finished
        (exact learning) is read off ``instrumentation.finished(node)``.
        Returns the result and the spill node (None when the plan carries
        no such node — the run then degenerates to a full execution)."""
        node = first_error_node(plan, frozenset(spill_pids))
        target = node if node is not None else plan
        inst = Instrumentation(budget, needed_columns=needed_columns(query))
        rows = 0
        stored: List[Batch] = []
        try:
            for batch in self._run(target, query, inst):
                rows += batch_length(batch)
                if node is not None:
                    stored.append(batch)
        except BudgetExceeded:
            outcome = ExecutionResult(
                completed=False,
                rows=rows,
                spent=inst.total_cost,
                instrumentation=inst,
            )
            self._trace_run(True, outcome)
            return outcome, node
        if node is None:
            outcome = ExecutionResult(
                completed=True, rows=rows, spent=inst.total_cost, instrumentation=inst
            )
            self._trace_run(True, outcome)
            return outcome, node
        # Spill-to-store resume: the subtree resolved under budget; run
        # the rest of the plan, replaying the stored output (already
        # charged and counted) when execution reaches the spill node.
        inst.replay = (node, stored)
        rows = 0
        try:
            for batch in self._run(plan, query, inst):
                rows += batch_length(batch)
        except BudgetExceeded:
            outcome = ExecutionResult(
                completed=False,
                rows=rows,
                spent=inst.total_cost,
                instrumentation=inst,
            )
            self._trace_run(True, outcome)
            return outcome, node
        outcome = ExecutionResult(
            completed=True, rows=rows, spent=inst.total_cost, instrumentation=inst
        )
        self._trace_run(True, outcome)
        return outcome, node

    # ------------------------------------------------------------------
    # Cost charging
    # ------------------------------------------------------------------

    def _charge(self, inst: Instrumentation, node: PlanNode, cost: float):
        if self.perturbation is not None:
            cost *= self.perturbation.factor(node)
        inst.charge(node, cost)

    # ------------------------------------------------------------------
    # Operator dispatch
    # ------------------------------------------------------------------

    def _run(self, node: PlanNode, query: Query, inst: Instrumentation) -> Iterator[Batch]:
        if inst.replay is not None and node is inst.replay[0]:
            # Resumed spill execution: the node's output was stored by
            # the spill pass (its work is already charged and counted).
            return iter(inst.replay[1])
        if isinstance(node, SeqScan):
            return self._run_seq_scan(node, query, inst)
        if isinstance(node, IndexScan):
            return self._run_index_scan(node, query, inst)
        if isinstance(node, Join):
            return self._run_join(node, query, inst)
        if isinstance(node, Aggregate):
            return self._run_aggregate(node, query, inst)
        raise ExecutionError(f"cannot execute node {node.signature()}")

    # -- scans -----------------------------------------------------------

    def _base_columns(self, table: str, inst: Instrumentation) -> Batch:
        """The whole base table as one batch, pruned to the columns the
        run needs (projection pushdown at the scan/fetch boundary)."""
        needed = inst.needed_columns
        columns = {
            qualify(table, column): array
            for column, array in self.database.table(table).items()
        }
        if needed is None:
            return columns
        return {name: array for name, array in columns.items() if name in needed}

    def _index(self, table: str, column: str) -> ColumnIndex:
        """The database's index over ``table.column`` (built on first use
        by whichever engine asks first; a B-tree that predates the query,
        as the cost model assumes).  Engines racing on a cold index may
        each book the one build; ``Database.index_builds`` is exact."""
        database = self.database
        if not self.tracer.enabled:
            return database.index(table, column)
        builds = database.index_builds
        index = database.index(table, column)
        built = database.index_builds != builds
        self.tracer.count("executor.index_builds" if built else "executor.index_hits")
        return index

    def _join_indices(self, keys: np.ndarray, lookup: ColumnIndex):
        """One probe batch's matches, counted by how ``lookup`` finds
        them (a table gather or a binary search) when tracing."""
        if self.tracer.enabled:
            dense = lookup.addresses(keys)
            self.tracer.count("executor.dense_probes" if dense else "executor.searched_probes")
        return join_indices(keys, lookup)

    def _run_seq_scan(self, node: SeqScan, query: Query, inst: Instrumentation):
        table = self.schema.table(node.table)
        model = self.cost_model
        preds = [self._selection(query, pid) for pid in node.filter_pids]
        n = table.row_count
        pages_per_row = table.pages / n
        columns = self._base_columns(node.table, inst)
        for start in range(0, n, self.batch_size):
            stop = min(start + self.batch_size, n)
            count = stop - start
            cost = count * pages_per_row * model.seq_page_cost
            cost += count * model.cpu_tuple_cost
            cost += count * len(preds) * model.cpu_operator_cost
            self._charge(inst, node, cost)
            batch = apply_selections(
                {name: array[start:stop] for name, array in columns.items()}, preds
            )
            out = batch_length(batch)
            if out:
                inst.emit(node, out)
                yield batch
        inst.mark_finished(node)

    def _run_index_scan(self, node: IndexScan, query: Query, inst: Instrumentation):
        table = self.schema.table(node.table)
        model = self.cost_model
        index_pred = self._selection(query, node.index_pid)
        if not index_pred.indexable:
            raise ExecutionError(f"cannot index-scan operator {index_pred.op!r}")
        residuals = [self._selection(query, pid) for pid in node.filter_pids]
        entries = self._index(node.table, index_pred.column)
        index = IndexInfo.for_table(table, index_pred.column)
        self._charge(inst, node, index.height * model.random_page_cost)
        ((lo, hi),) = entries.spans(index_pred.op, index_pred.value)
        matched = hi - lo
        leaf_share = (matched / max(1, table.row_count)) * index.leaf_pages
        self._charge(inst, node, leaf_share * model.seq_page_cost)
        row_ids = entries.order[lo:hi].astype(np.intp)
        per_row = (
            model.cpu_index_tuple_cost
            + model.random_page_cost
            + model.cpu_tuple_cost
            + len(residuals) * model.cpu_operator_cost
        )
        columns = self._base_columns(node.table, inst)
        for start in range(0, matched, self.batch_size):
            ids = row_ids[start : min(start + self.batch_size, matched)]
            self._charge(inst, node, ids.size * per_row)
            batch = apply_selections(take(columns, ids), residuals)
            out = batch_length(batch)
            if out:
                inst.emit(node, out)
                yield batch
        inst.mark_finished(node)

    # -- joins -----------------------------------------------------------

    def _run_join(self, node: Join, query: Query, inst: Instrumentation):
        if node.algo == "inl":
            yield from self._run_inl_join(node, query, inst)
        elif node.algo == "hash":
            yield from self._run_hash_like_join(node, query, inst, flavour="hash")
        elif node.algo == "merge":
            yield from self._run_hash_like_join(node, query, inst, flavour="merge")
        elif node.algo == "nl":
            yield from self._run_nl_join(node, query, inst)
        else:  # pragma: no cover
            raise ExecutionError(f"unknown join algorithm {node.algo!r}")
        inst.mark_finished(node)

    def _join_columns(self, query: Query, node: Join) -> Tuple[JoinPredicate, List[JoinPredicate]]:
        """The driving join predicate and any extra composite predicates."""
        preds = [query.predicate(pid) for pid in node.join_pids]
        for pred in preds:
            if not isinstance(pred, JoinPredicate):
                raise ExecutionError(f"join pid {pred.pid} is not a join predicate")
        return preds[0], preds[1:]

    def _sides(self, node: Join, pred: JoinPredicate) -> Tuple[str, str]:
        """Qualified key column names on (left child, right child)."""
        left_tables = node.left.tables()
        if pred.left_table in left_tables:
            return (
                qualify(pred.left_table, pred.left_column),
                qualify(pred.right_table, pred.right_column),
            )
        return (
            qualify(pred.right_table, pred.right_column),
            qualify(pred.left_table, pred.left_column),
        )

    def _composite_filter(
        self, batch: Batch, extras: Sequence[JoinPredicate], node: Join, inst: Instrumentation
    ) -> Batch:
        """Apply the remaining equi-join predicates of a composite join."""
        if not extras or not batch_length(batch):
            return batch
        model = self.cost_model
        mask = np.ones(batch_length(batch), dtype=bool)
        self._charge(inst, node, batch_length(batch) * len(extras) * model.cpu_operator_cost)
        for pred in extras:
            left = batch[qualify(pred.left_table, pred.left_column)]
            right = batch[qualify(pred.right_table, pred.right_column)]
            mask &= left == right
        return filter_rows(batch, mask)

    def _materialize(self, child: PlanNode, query: Query, inst: Instrumentation) -> Batch:
        return concat(list(self._run(child, query, inst)))

    def _run_hash_like_join(self, node: Join, query: Query, inst: Instrumentation, flavour: str):
        model = self.cost_model
        driving, extras = self._join_columns(query, node)
        left_key, right_key = self._sides(node, driving)
        build = self._materialize(node.right, query, inst)
        build_rows = batch_length(build)
        if flavour == "hash":
            self._charge(inst, node, build_rows * model.hash_tuple_cost)
        else:  # merge: sort the build side now; probe side sorted as it streams
            self._charge(
                inst,
                node,
                _sort_charge(build_rows, model) + build_rows * model.cpu_operator_cost,
            )
        probe_seen = 0
        if build_rows:
            lookup = ColumnIndex.build(build[right_key])
        for probe in self._run(node.left, query, inst):
            probe_rows = batch_length(probe)
            if flavour == "hash":
                self._charge(inst, node, probe_rows * model.hash_tuple_cost)
            else:
                # Marginal sort cost so the per-batch charges telescope to
                # the cost model's N·log(N) for the full probe input.
                marginal = _sort_charge(probe_seen + probe_rows, model) - _sort_charge(
                    probe_seen, model
                )
                probe_seen += probe_rows
                self._charge(
                    inst, node, marginal + probe_rows * model.cpu_operator_cost
                )
            if not build_rows:
                continue
            probe_idx, build_idx = self._join_indices(probe[left_key], lookup)
            out = merge_batches(probe, probe_idx, build, build_idx)
            out = self._composite_filter(out, extras, node, inst)
            count = batch_length(out)
            self._charge(inst, node, count * model.cpu_tuple_cost)
            if count:
                inst.emit(node, count)
                yield out

    def _run_nl_join(self, node: Join, query: Query, inst: Instrumentation):
        model = self.cost_model
        driving, extras = self._join_columns(query, node)
        left_key, right_key = self._sides(node, driving)
        inner = self._materialize(node.right, query, inst)
        inner_rows = batch_length(inner)
        self._charge(inst, node, inner_rows * model.cpu_tuple_cost)  # materialize
        if inner_rows:
            lookup = ColumnIndex.build(inner[right_key])
        for outer in self._run(node.left, query, inst):
            outer_rows = batch_length(outer)
            # The nested-loop comparisons are charged faithfully even though
            # the matching itself is computed with sorted lookups.
            self._charge(inst, node, outer_rows * inner_rows * model.cpu_operator_cost)
            if not inner_rows:
                continue
            outer_idx, inner_idx = self._join_indices(outer[left_key], lookup)
            out = merge_batches(outer, outer_idx, inner, inner_idx)
            out = self._composite_filter(out, extras, node, inst)
            count = batch_length(out)
            self._charge(inst, node, count * model.cpu_tuple_cost)
            if count:
                inst.emit(node, count)
                yield out

    def _run_inl_join(self, node: Join, query: Query, inst: Instrumentation):
        model = self.cost_model
        driving, extras = self._join_columns(query, node)
        inner: IndexLookup = node.right  # type: ignore[assignment]
        outer_key = qualify(driving.other(inner.table), driving.column_for(driving.other(inner.table)))
        residuals = [self._selection(query, pid) for pid in inner.filter_pids]
        lookup = self._index(inner.table, inner.lookup_column)
        columns = self._base_columns(inner.table, inst)
        per_match = (
            model.cpu_index_tuple_cost
            + model.random_page_cost
            + model.cpu_tuple_cost
            + len(residuals) * model.cpu_operator_cost
        )
        for outer in self._run(node.left, query, inst):
            outer_rows = batch_length(outer)
            self._charge(inst, node, outer_rows * model.random_page_cost)  # descents
            outer_idx, inner_idx = self._join_indices(outer[outer_key], lookup)
            self._charge(inst, node, inner_idx.size * per_match)
            out = merge_batches(outer, outer_idx, columns, inner_idx)
            out = apply_selections(out, residuals)
            out = self._composite_filter(out, extras, node, inst)
            count = batch_length(out)
            self._charge(inst, node, count * model.cpu_tuple_cost)
            if count:
                inst.emit(node, count)
                yield out

    # -- aggregation ------------------------------------------------------

    def _run_aggregate(self, node: Aggregate, query: Query, inst: Instrumentation):
        """Hash aggregation: COUNT(*) per group (or one global count)."""
        model = self.cost_model
        if not node.group_columns:
            count = 0
            for batch in self._run(node.child, query, inst):
                n = batch_length(batch)
                count += n
                self._charge(inst, node, n * model.hash_tuple_cost)
            self._charge(inst, node, model.cpu_tuple_cost)
            inst.emit(node, 1)
            inst.mark_finished(node)
            yield {"count": np.array([count], dtype=np.int64)}
            return
        key_names = [qualify(t, c) for t, c in node.group_columns]

        def grouped(batch: Batch, weights: Optional[np.ndarray] = None) -> Batch:
            keys, counts = group_counts([batch[name] for name in key_names], weights)
            return {**dict(zip(key_names, keys)), "count": counts}

        # One small group table per input batch, merged at the end.
        partials: List[Batch] = []
        for batch in self._run(node.child, query, inst):
            n = batch_length(batch)
            self._charge(
                inst,
                node,
                n * (model.hash_tuple_cost + len(key_names) * model.cpu_operator_cost),
            )
            if n:
                partials.append(grouped(batch))
        groups = concat(partials)
        if len(partials) > 1:
            groups = grouped(groups, weights=groups["count"])
        count = batch_length(groups)
        self._charge(inst, node, count * model.cpu_tuple_cost)
        inst.emit(node, count)
        inst.mark_finished(node)
        if count:
            yield groups

    # ------------------------------------------------------------------

    @staticmethod
    def _selection(query: Query, pid: str) -> SelectionPredicate:
        pred = query.predicate(pid)
        if not isinstance(pred, SelectionPredicate):
            raise ExecutionError(f"pid {pid!r} is not a selection predicate")
        return pred


def _sort_charge(rows: int, model: CostModel) -> float:
    return model.sort_cpu_factor * rows * math.log2(rows + 2.0)


def needed_columns(query: Query):
    """Qualified columns the execution of ``query`` actually touches.

    Join keys, predicate columns, and group-by columns; batches are
    pruned to this set at the scan/fetch boundary (projection pushdown).
    For plain ``SELECT *`` queries all columns are needed.
    """
    if not query.aggregate:
        return None  # SELECT *: every column is part of the result
    needed = set()
    for sel in query.selections:
        needed.add(qualify(sel.table, sel.column))
    for join in query.joins:
        needed.add(qualify(join.left_table, join.left_column))
        needed.add(qualify(join.right_table, join.right_column))
    for table, column in query.group_by:
        needed.add(qualify(table, column))
    return needed
