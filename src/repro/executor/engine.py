"""The execution engine: budget-limited, instrumented, spill-capable.

A batch-at-a-time numpy engine over the in-memory database.  A plan is
first *bound* to the data (:meth:`ExecutionEngine.bind`): each node
becomes an operator holding its resolved predicates, qualified column
names, the base columns it reads, the index handles it probes and its
charge constants, and operators are generators of column batches.  The
access paths are the ones the :class:`~repro.datagen.database.Database`
owns.  A hash, merge or NL join keeps its build side once built, with
the log of its charges and tuple counts, for every later run of the
bound plan to replay instead of running the subtree again.

Work is charged to the
:class:`~repro.executor.instrumentation.Instrumentation` account in the
*same units and formulas* as the optimizer's cost model, so "execute
under budget IC_k" is directly meaningful.  An optional deterministic
cost-perturbation models bounded cost-model error δ (§3.4).

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
import zlib
from collections import namedtuple
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple, Union

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
    group_radices,
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
        # crc32, not hash(): str hashes are salted per process, and the
        # factor must repeat across processes.
        key = zlib.crc32(f"{node.signature()}|{self.seed}".encode())
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


class BoundPlan(NamedTuple):
    """A plan bound to one dataset under one cost model: its root
    operator, each node's operator by ``id(node)``, and the columns the
    run needs.  Batch size and cost perturbation stay the engine's; its
    joins keep their build sides once built (``_BuildJoin.build``)."""

    plan: PlanNode
    root: "_Operator"
    ops: Dict[int, "_Operator"]
    needed: Optional[Set[str]]


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

    def bind(self, query: Query, plan: PlanNode) -> BoundPlan:
        """``plan`` bound to this engine's database and cost model; a
        :class:`BoundPlan` runs on any engine over the same database and
        cost model, and binding it is the only work :meth:`execute` adds
        to a bare plan."""
        needed = needed_columns(query)
        ops: Dict[int, _Operator] = {}
        root = _bind(self, query, plan, needed, ops)
        return BoundPlan(plan, root, ops, needed)

    def execute(
        self,
        query: Query,
        plan: Union[PlanNode, BoundPlan],
        budget: Optional[float] = None,
        collect: bool = False,
    ) -> ExecutionResult:
        """Run ``plan`` fully (or until ``budget`` kills it)."""
        bound = plan if isinstance(plan, BoundPlan) else self.bind(query, plan)
        inst = Instrumentation(budget, needed_columns=bound.needed)
        rows = 0
        collected: List[Batch] = []
        try:
            for batch in self._run(bound.root, inst):
                rows += batch_length(batch)
                if collect:
                    collected.append(batch)
        except BudgetExceeded:
            return self._outcome(False, False, rows, inst)
        return self._outcome(
            False, True, rows, inst, concat(collected) if collect and collected else None
        )

    def execute_spilled(
        self,
        query: Query,
        plan: Union[PlanNode, BoundPlan],
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
        bound = plan if isinstance(plan, BoundPlan) else self.bind(query, plan)
        node = first_error_node(bound.plan, frozenset(spill_pids))
        target = bound.root if node is None else bound.ops[id(node)]
        inst = Instrumentation(budget, needed_columns=bound.needed)
        rows = 0
        stored: List[Batch] = []
        try:
            for batch in self._run(target, inst):
                rows += batch_length(batch)
                if node is not None:
                    stored.append(batch)
        except BudgetExceeded:
            return self._outcome(True, False, rows, inst), node
        if node is None:
            return self._outcome(True, True, rows, inst), node
        # Spill-to-store resume: the subtree resolved under budget; run
        # the rest of the plan, replaying the stored output (already
        # charged and counted) when execution reaches the spill node.
        inst.replay = (node, stored)
        rows = 0
        try:
            for batch in self._run(bound.root, inst):
                rows += batch_length(batch)
        except BudgetExceeded:
            return self._outcome(True, False, rows, inst), node
        return self._outcome(True, True, rows, inst), node

    def _outcome(
        self, spilled: bool, completed: bool, rows: int, inst: Instrumentation, result=None
    ) -> ExecutionResult:
        outcome = ExecutionResult(
            completed=completed,
            rows=rows,
            spent=inst.total_cost,
            instrumentation=inst,
            result=result,
        )
        self._trace_run(spilled, outcome)
        return outcome

    # ------------------------------------------------------------------
    # Cost charging and operator dispatch
    # ------------------------------------------------------------------

    def _charge(self, inst: Instrumentation, node: PlanNode, cost: float):
        if inst.log is not None:
            inst.log.append(("charge", node, cost))
        if self.perturbation is not None:
            cost *= self.perturbation.factor(node)
        inst.charge(node, cost)

    def _run(self, op: "_Operator", inst: Instrumentation) -> Iterator[Batch]:
        if inst.replay is not None and op.node is inst.replay[0]:
            # Resumed spill execution: the node's output was stored by
            # the spill pass (its work is already charged and counted).
            return iter(inst.replay[1])
        return op.batches(self, inst)

    # -- access paths ----------------------------------------------------

    def _base_columns(self, table: str, needed) -> Batch:
        """The whole base table as one batch, pruned to the ``needed``
        columns (projection pushdown at the scan/fetch boundary)."""
        return {
            qualify(table, column): array
            for column, array in self.database.table(table).items()
            if needed is None or qualify(table, column) in needed
        }

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


# ---------------------------------------------------------------------------
# Bound operators
# ---------------------------------------------------------------------------


class _Operator:
    """One plan node bound to the data: ``batches(engine, inst)`` yields
    its output, charging ``node`` on ``inst``."""

    node: PlanNode

    def batches(self, engine: ExecutionEngine, inst: Instrumentation) -> Iterator[Batch]:
        raise NotImplementedError


class _SeqScan(_Operator):
    def __init__(self, engine: ExecutionEngine, query: Query, node: SeqScan, needed):
        table = engine.schema.table(node.table)
        self.node = node
        self.model = engine.cost_model
        self.preds = [_selection(query, pid) for pid in node.filter_pids]
        self.rows = table.row_count
        self.pages_per_row = table.pages / table.row_count
        self.columns = engine._base_columns(node.table, needed)

    def batches(self, engine, inst):
        node, model, columns, preds = self.node, self.model, self.columns, self.preds
        n, step = self.rows, engine.batch_size
        for start in range(0, n, step):
            stop = min(start + step, n)
            count = stop - start
            cost = count * self.pages_per_row * model.seq_page_cost
            cost += count * model.cpu_tuple_cost
            cost += count * len(preds) * model.cpu_operator_cost
            engine._charge(inst, node, cost)
            batch = apply_selections(
                {name: array[start:stop] for name, array in columns.items()}, preds
            )
            out = batch_length(batch)
            if out:
                inst.emit(node, out)
                yield batch
        inst.mark_finished(node)


class _IndexScan(_Operator):
    def __init__(self, engine: ExecutionEngine, query: Query, node: IndexScan, needed):
        table = engine.schema.table(node.table)
        model = self.model = engine.cost_model
        index_pred = _selection(query, node.index_pid)
        if not index_pred.indexable:
            raise ExecutionError(f"cannot index-scan operator {index_pred.op!r}")
        self.node = node
        self.residuals = [_selection(query, pid) for pid in node.filter_pids]
        entries = engine._index(node.table, index_pred.column)
        index = IndexInfo.for_table(table, index_pred.column)
        self.descent = index.height * model.random_page_cost
        ((lo, hi),) = entries.spans(index_pred.op, index_pred.value)
        leaf_share = ((hi - lo) / max(1, table.row_count)) * index.leaf_pages
        self.leaves = leaf_share * model.seq_page_cost
        self.row_ids = entries.order[lo:hi].astype(np.intp)
        self.per_row = (
            model.cpu_index_tuple_cost
            + model.random_page_cost
            + model.cpu_tuple_cost
            + len(self.residuals) * model.cpu_operator_cost
        )
        self.columns = engine._base_columns(node.table, needed)

    def batches(self, engine, inst):
        node, row_ids, step = self.node, self.row_ids, engine.batch_size
        engine._charge(inst, node, self.descent)
        engine._charge(inst, node, self.leaves)
        for start in range(0, row_ids.size, step):
            ids = row_ids[start : start + step]
            engine._charge(inst, node, ids.size * self.per_row)
            batch = apply_selections(take(self.columns, ids), self.residuals)
            out = batch_length(batch)
            if out:
                inst.emit(node, out)
                yield batch
        inst.mark_finished(node)


class _Join(_Operator):
    """What every join algorithm binds: the children, the driving key
    pair and the composite predicates' column pairs."""

    def __init__(self, engine: ExecutionEngine, query: Query, node: Join, needed, ops):
        preds = [query.predicate(pid) for pid in node.join_pids]
        for pred in preds:
            if not isinstance(pred, JoinPredicate):
                raise ExecutionError(f"join pid {pred.pid} is not a join predicate")
        self.node = node
        self.model = engine.cost_model
        self.left = _bind(engine, query, node.left, needed, ops)
        self.driving = preds[0]
        self.extras = [
            (qualify(p.left_table, p.left_column), qualify(p.right_table, p.right_column))
            for p in preds[1:]
        ]

    def composite_filter(self, engine, batch: Batch, inst: Instrumentation) -> Batch:
        """Apply the remaining equi-join predicates of a composite join."""
        if not self.extras or not batch_length(batch):
            return batch
        mask = np.ones(batch_length(batch), dtype=bool)
        engine._charge(
            inst, self.node, batch_length(batch) * len(self.extras) * self.model.cpu_operator_cost
        )
        for left, right in self.extras:
            mask &= batch[left] == batch[right]
        return filter_rows(batch, mask)

    def finish(self, engine, out: Batch, inst: Instrumentation) -> Optional[Batch]:
        """Charge and count a joined batch; None when it is empty."""
        out = self.composite_filter(engine, out, inst)
        count = batch_length(out)
        engine._charge(inst, self.node, count * self.model.cpu_tuple_cost)
        if not count:
            return None
        inst.emit(self.node, count)
        return out


#: A completed build side: its output (read-only views), row count, the
#: index over its key, the batch size it was built at, and the ordered
#: log of what its subtree did to the account.
_Kept = namedtuple("_Kept", "batch rows index batch_size log")


class _BuildJoin(_Join):
    """Hash, merge and nested-loop joins: the right child is built (the
    hash table, the sorted run, the materialised inner), then the left
    streams against it.  The bound plan keeps the build (``kept``) for
    later runs to replay; a whole base table's is its base columns and
    the database's index over its key (``shared``)."""

    def __init__(self, engine, query, node: Join, needed, ops):
        super().__init__(engine, query, node, needed, ops)
        pred = self.driving
        if pred.left_table in node.left.tables():
            self.left_key = qualify(pred.left_table, pred.left_column)
            right_table, right_column = pred.right_table, pred.right_column
        else:
            self.left_key = qualify(pred.right_table, pred.right_column)
            right_table, right_column = pred.left_table, pred.left_column
        self.right_key = qualify(right_table, right_column)
        self.right = _bind(engine, query, node.right, needed, ops)
        self.shared = None
        if _whole_table(node.right):
            self.shared = engine._index(right_table, right_column)
        self.kept: Optional[_Kept] = None

    def build(self, engine, inst: Instrumentation) -> Tuple[Batch, int, Optional[ColumnIndex]]:
        """The build side's output, its row count and the index over its
        key (None when it is empty).  A build kept at this engine's batch
        size is replayed: its log goes through ``inst`` in order, charges
        through :meth:`ExecutionEngine._charge`, so a budget kills the
        replay where it killed the run.  Otherwise the build is recorded
        and kept once complete, unless a spill resume stored a node in it."""
        kept = self.kept
        resumed = inst.replay is not None and any(
            node is inst.replay[0] for node in self.right.node.postorder()
        )
        replay = kept is not None and kept.batch_size == engine.batch_size and not resumed
        if engine.tracer.enabled:
            engine.tracer.count("executor.build_replays" if replay else "executor.builds")
        if replay:
            for kind, node, value in kept.log:
                if kind == "charge":
                    engine._charge(inst, node, value)
                elif kind == "emit":
                    inst.emit(node, value)
                else:
                    inst.mark_finished(node)
            return kept.batch, kept.rows, kept.index
        outer, inst.log = inst.log, []
        batches = list(engine._run(self.right, inst))
        log, inst.log = inst.log, outer
        if outer is not None:  # an enclosing build is recording
            outer.extend(log)
        if self.shared is not None:  # no copy, no sort
            build, index = self.right.columns, self.shared
        else:
            build = concat(batches)
            index = ColumnIndex.build(build[self.right_key]) if batch_length(build) else None
        build = {name: array.view() for name, array in build.items()}
        for array in build.values():  # a view: the base column stays writeable
            array.setflags(write=False)
        rows = batch_length(build)
        if not resumed:
            self.kept = _Kept(build, rows, index, engine.batch_size, log)
        return build, rows, index


class _HashJoin(_BuildJoin):
    def batches(self, engine, inst):
        node, model, merge = self.node, self.model, self.node.algo == "merge"
        build, build_rows, lookup = self.build(engine, inst)
        if merge:  # sort the build side now; probe side sorted as it streams
            engine._charge(
                inst, node, _sort_charge(build_rows, model) + build_rows * model.cpu_operator_cost
            )
        else:
            engine._charge(inst, node, build_rows * model.hash_tuple_cost)
        probe_seen = 0
        for probe in engine._run(self.left, inst):
            probe_rows = batch_length(probe)
            if merge:
                # Marginal sort cost so the per-batch charges telescope to
                # the cost model's N·log(N) for the full probe input.
                marginal = _sort_charge(probe_seen + probe_rows, model) - _sort_charge(
                    probe_seen, model
                )
                probe_seen += probe_rows
                engine._charge(inst, node, marginal + probe_rows * model.cpu_operator_cost)
            else:
                engine._charge(inst, node, probe_rows * model.hash_tuple_cost)
            if not build_rows:
                continue
            probe_idx, build_idx = engine._join_indices(probe[self.left_key], lookup)
            out = self.finish(engine, merge_batches(probe, probe_idx, build, build_idx), inst)
            if out is not None:
                yield out
        inst.mark_finished(node)


class _NLJoin(_BuildJoin):
    def batches(self, engine, inst):
        node, model = self.node, self.model
        inner, inner_rows, lookup = self.build(engine, inst)
        engine._charge(inst, node, inner_rows * model.cpu_tuple_cost)  # materialize
        for outer in engine._run(self.left, inst):
            outer_rows = batch_length(outer)
            # The nested-loop comparisons are charged faithfully even though
            # the matching itself is computed with sorted lookups.
            engine._charge(inst, node, outer_rows * inner_rows * model.cpu_operator_cost)
            if not inner_rows:
                continue
            outer_idx, inner_idx = engine._join_indices(outer[self.left_key], lookup)
            out = self.finish(engine, merge_batches(outer, outer_idx, inner, inner_idx), inst)
            if out is not None:
                yield out
        inst.mark_finished(node)


class _INLJoin(_Join):
    def __init__(self, engine, query, node: Join, needed, ops):
        super().__init__(engine, query, node, needed, ops)
        inner: IndexLookup = node.right  # type: ignore[assignment]
        model, driving = self.model, self.driving
        outer_table = driving.other(inner.table)
        self.outer_key = qualify(outer_table, driving.column_for(outer_table))
        self.residuals = [_selection(query, pid) for pid in inner.filter_pids]
        self.lookup = engine._index(inner.table, inner.lookup_column)
        self.columns = engine._base_columns(inner.table, needed)
        self.per_match = (
            model.cpu_index_tuple_cost
            + model.random_page_cost
            + model.cpu_tuple_cost
            + len(self.residuals) * model.cpu_operator_cost
        )

    def batches(self, engine, inst):
        node, model = self.node, self.model
        for outer in engine._run(self.left, inst):
            outer_rows = batch_length(outer)
            engine._charge(inst, node, outer_rows * model.random_page_cost)  # descents
            outer_idx, inner_idx = engine._join_indices(outer[self.outer_key], self.lookup)
            engine._charge(inst, node, inner_idx.size * self.per_match)
            out = merge_batches(outer, outer_idx, self.columns, inner_idx)
            out = self.finish(engine, apply_selections(out, self.residuals), inst)
            if out is not None:
                yield out
        inst.mark_finished(node)


class _Aggregate(_Operator):
    """Hash aggregation: COUNT(*) per group (or one global count).  Each
    input batch is charged as it arrives; the batches' key columns are
    grouped once, concatenated, at the end."""

    def __init__(self, engine, query, node: Aggregate, needed, ops):
        self.node = node
        self.model = engine.cost_model
        self.child = _bind(engine, query, node.child, needed, ops)
        self.key_names = [qualify(t, c) for t, c in node.group_columns]

    def batches(self, engine, inst):
        node, model, key_names = self.node, self.model, self.key_names
        if not key_names:
            count = 0
            for batch in engine._run(self.child, inst):
                n = batch_length(batch)
                count += n
                engine._charge(inst, node, n * model.hash_tuple_cost)
            engine._charge(inst, node, model.cpu_tuple_cost)
            inst.emit(node, 1)
            inst.mark_finished(node)
            yield {"count": np.array([count], dtype=np.int64)}
            return

        parts: List[List[np.ndarray]] = []
        for batch in engine._run(self.child, inst):
            n = batch_length(batch)
            engine._charge(
                inst, node, n * (model.hash_tuple_cost + len(key_names) * model.cpu_operator_cost)
            )
            if n:
                parts.append([batch[name] for name in key_names])
        count = 0
        if parts:
            columns = [np.concatenate(column) for column in zip(*parts)]
            if engine.tracer.enabled:  # counted by path, as join probes are
                dense = group_radices(columns) is not None
                engine.tracer.count("executor.dense_groups" if dense else "executor.sorted_groups")
            keys, counts = group_counts(columns)
            count = counts.size
        engine._charge(inst, node, count * model.cpu_tuple_cost)
        inst.emit(node, count)
        inst.mark_finished(node)
        if count:
            yield {**dict(zip(key_names, keys)), "count": counts}


def _bind(engine: ExecutionEngine, query: Query, node: PlanNode, needed, ops) -> _Operator:
    if isinstance(node, SeqScan):
        op = _SeqScan(engine, query, node, needed)
    elif isinstance(node, IndexScan):
        op = _IndexScan(engine, query, node, needed)
    elif isinstance(node, Join) and node.algo in ("hash", "merge"):
        op = _HashJoin(engine, query, node, needed, ops)
    elif isinstance(node, Join) and node.algo == "nl":
        op = _NLJoin(engine, query, node, needed, ops)
    elif isinstance(node, Join) and node.algo == "inl":
        op = _INLJoin(engine, query, node, needed, ops)
    elif isinstance(node, Aggregate):
        op = _Aggregate(engine, query, node, needed, ops)
    else:
        raise ExecutionError(f"cannot execute node {node.signature()}")
    ops[id(node)] = op
    return op


def _whole_table(node: PlanNode) -> bool:
    """Whether ``node`` outputs a whole base table: a scan with no filter."""
    return isinstance(node, SeqScan) and not node.filter_pids


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
