"""Physical plan trees and abstract plan costing.

Plans are immutable operator trees.  Costing is *parametric*: a plan can be
costed at any selectivity assignment (`abstract plan costing`, the engine
facility the bouquet technique leans on, §5.4).  All formulas are monotone
non-decreasing in every selectivity, so Plan Cost Monotonicity (PCM) holds
by construction — the assumption underlying the bouquet guarantees (§2).

Operator inventory: sequential scan, index scan, index lookup (inner side
of an index nested-loop join), and four join algorithms (materialized
nested loops, hash, sort-merge, index nested loops).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..catalog.schema import IndexInfo, Schema
from ..exceptions import OptimizerError
from .cost_model import CostModel


class NodeEstimate:
    """Output cardinality and cumulative cost of a plan node.

    Fields are floats for point costing, or numpy arrays when the
    assignment maps pids to arrays — the same formulas then evaluate the
    plan over a whole grid of selectivity points at once (vectorized
    abstract plan costing).  A plain two-slot value: the DP builds one
    per candidate, so it skips a frozen dataclass's guarded setattr."""

    __slots__ = ("rows", "cost")

    def __init__(self, rows: float, cost: float):
        self.rows = rows
        self.cost = cost

    def __repr__(self):
        return f"NodeEstimate(rows={self.rows!r}, cost={self.cost!r})"


class CostContext:
    """Everything needed to cost a plan at one point in selectivity space.

    The assignment may map pids to scalars (point costing) or to numpy
    arrays: every operator formula is plain elementwise arithmetic that
    never updates an operand in place, so an array-valued context
    evaluates a plan at a whole slab of ESS locations in one pass (1-D
    columns; :meth:`for_slab` is the explicit batch entry point used by
    :mod:`repro.batchopt`) or over a whole grid whose axes broadcast
    against each other (``PlanCostCache.cost_arrays``).
    """

    def __init__(
        self,
        schema: Schema,
        cost_model: CostModel,
        assignment: Mapping[str, float],
    ):
        self.schema = schema
        self.cost_model = cost_model
        self.assignment = assignment
        # Memo holds (node, estimate): keeping a strong reference to the
        # node guarantees its id() is not recycled for a different node
        # within this context's lifetime.
        self._memo: Dict[int, Tuple[PlanNode, NodeEstimate]] = {}

    @classmethod
    def for_slab(
        cls,
        schema: Schema,
        cost_model: CostModel,
        columns: Mapping[str, object],
    ) -> "CostContext":
        """Array-valued costing context over a slab of ESS locations.

        ``columns`` maps each pid to either a python float (the pid is
        constant over the slab) or a 1-D array of per-location
        selectivities.
        """
        return cls(schema, cost_model, columns)

    def selectivity(self, pid: str) -> float:
        try:
            return self.assignment[pid]
        except KeyError:
            raise OptimizerError(f"no selectivity for predicate {pid!r}") from None

    def product(self, pids: Sequence[str]) -> float:
        # ``1.0 * x == x`` exactly, so the product starts at the first
        # factor.
        if not pids:
            return 1.0
        result = self.selectivity(pids[0])
        for pid in pids[1:]:
            result = result * self.selectivity(pid)
        return result

    def estimates(self, plans: Sequence["PlanNode"]) -> Iterator[NodeEstimate]:
        """The plans' estimates, in order.

        A sub-tree shared between plans is costed once, and its memoized
        estimate is dropped after the last plan that embeds it, so the
        memo holds what a later plan will still read and nothing else.
        Over a grid that is a few dozen arrays, not two per node of
        every plan (``4D_H_Q8``'s 172 POSP plans: 0.3 MB, not 10 MB):
        the caller's peak memory stays near what it keeps, so a
        process's peak RSS does not depend on the order of its compiles.
        """
        last: Dict[int, int] = {}
        for k, plan in enumerate(plans):
            stack = [plan]
            while stack:
                node = stack.pop()
                # A node seen before is read from the memo, not costed
                # again: its sub-tree is not walked for this plan.
                if id(node) not in last:
                    stack.extend(node.children)
                last[id(node)] = k
        done: List[List[int]] = [[] for _ in plans]
        for key, k in last.items():
            done[k].append(key)
        for plan, keys in zip(plans, done):
            yield plan.estimate(self)
            for key in keys:
                self._memo.pop(key, None)


class PlanNode:
    """Base class for plan operators."""

    #: Child operators (leaf nodes have none).
    children: Tuple["PlanNode", ...] = ()

    # -- identity ------------------------------------------------------

    def signature(self) -> str:
        """Stable structural identity; two plans with equal signatures are
        the same plan for POSP/bouquet purposes."""
        raise NotImplementedError

    def canonical_signature(self) -> str:
        """Memoized :meth:`signature`.

        Plan trees are immutable after construction, so the signature is
        computed once and cached on the instance.  The batch compile
        kernel registers the same frontier plan for many grid locations;
        the cache turns those repeat registrations into a dict hit
        instead of an O(tree) string rebuild.
        """
        sig = getattr(self, "_signature_cache", None)
        if sig is None:
            sig = self.signature()
            self._signature_cache = sig
        return sig

    # -- metadata ------------------------------------------------------

    @property
    def local_pids(self) -> FrozenSet[str]:
        """Predicates evaluated *at* this node."""
        raise NotImplementedError

    def all_pids(self) -> FrozenSet[str]:
        pids = set(self.local_pids)
        for child in self.children:
            pids |= child.all_pids()
        return frozenset(pids)

    def tables(self) -> FrozenSet[str]:
        raise NotImplementedError

    # -- costing -------------------------------------------------------

    def estimate(self, ctx: CostContext) -> NodeEstimate:
        cached = ctx._memo.get(id(self))
        if cached is not None:
            return cached[1]
        result = self._estimate(ctx)
        # Memoized estimates are shared by every plan that embeds this
        # node; freeze array fields so an accidental in-place update in a
        # parent's formula raises instead of corrupting the slab memo.
        for field in (result.rows, result.cost):
            if isinstance(field, np.ndarray):
                field.setflags(write=False)
        ctx._memo[id(self)] = (self, result)
        return result

    def _estimate(self, ctx: CostContext) -> NodeEstimate:
        raise NotImplementedError

    # -- traversal -----------------------------------------------------

    def postorder(self):
        """Yield nodes in execution order (children before parents)."""
        for child in self.children:
            yield from child.postorder()
        yield self

    def depth(self) -> int:
        """Height of the subtree rooted here."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def __repr__(self):
        return self.signature()


class SeqScan(PlanNode):
    """Full sequential scan of a base table with conjunctive filters."""

    def __init__(self, table: str, filter_pids: Tuple[str, ...] = ()):
        self.table = table
        self.filter_pids = tuple(sorted(filter_pids))

    def signature(self):
        filters = ",".join(self.filter_pids)
        return f"SS({self.table}|{filters})"

    @property
    def local_pids(self):
        return frozenset(self.filter_pids)

    def tables(self):
        return frozenset((self.table,))

    def _estimate(self, ctx):
        table = ctx.schema.table(self.table)
        model = ctx.cost_model
        rows_in = float(table.row_count)
        cost = table.pages * model.seq_page_cost
        cost = cost + rows_in * model.cpu_tuple_cost
        cost = cost + rows_in * len(self.filter_pids) * model.cpu_operator_cost
        rows_out = rows_in * ctx.product(self.filter_pids)
        return NodeEstimate(rows=rows_out, cost=cost)


class IndexScan(PlanNode):
    """B-tree index scan driven by one selection predicate.

    ``index_pid`` is the predicate satisfied via the index; remaining
    filters are applied to fetched heap rows.  Heap fetches are charged as
    random page reads, so the scan loses to :class:`SeqScan` at high
    selectivity — which is what makes the POSP set non-trivial.
    """

    def __init__(self, table: str, index_pid: str, filter_pids: Tuple[str, ...] = ()):
        self.table = table
        self.index_pid = index_pid
        self.filter_pids = tuple(sorted(filter_pids))

    def signature(self):
        filters = ",".join(self.filter_pids)
        return f"IS({self.table}:{self.index_pid}|{filters})"

    @property
    def local_pids(self):
        return frozenset((self.index_pid,) + self.filter_pids)

    def tables(self):
        return frozenset((self.table,))

    def _estimate(self, ctx):
        table = ctx.schema.table(self.table)
        model = ctx.cost_model
        sel = ctx.selectivity(self.index_pid)
        matched = table.row_count * sel
        index = IndexInfo.for_table(table, self.index_pid)  # one per (table, pid)
        cost = index.height * model.random_page_cost
        cost = cost + sel * index.leaf_pages * model.seq_page_cost
        cost = cost + matched * model.cpu_index_tuple_cost
        cost = cost + matched * model.random_page_cost  # heap fetches (uncorrelated)
        cost = cost + matched * model.cpu_tuple_cost
        cost = cost + matched * len(self.filter_pids) * model.cpu_operator_cost
        rows_out = matched * ctx.product(self.filter_pids)
        return NodeEstimate(rows=rows_out, cost=cost)


class IndexLookup(PlanNode):
    """Inner side of an index nested-loop join: per-outer-tuple lookups.

    Never costed standalone; :class:`Join` with ``algo='inl'`` folds the
    per-lookup cost into the join formula.  For the same reason its
    ``local_pids`` are empty: the residual ``filter_pids`` are evaluated
    per-lookup *by the enclosing join*, which reports them — so spill
    machinery (``first_error_node``) targets the join, the smallest
    subtree that can actually be costed or executed.
    """

    def __init__(self, table: str, lookup_column: str, filter_pids: Tuple[str, ...] = ()):
        self.table = table
        self.lookup_column = lookup_column
        self.filter_pids = tuple(sorted(filter_pids))

    def signature(self):
        filters = ",".join(self.filter_pids)
        return f"IXL({self.table}.{self.lookup_column}|{filters})"

    @property
    def local_pids(self):
        return frozenset()

    def tables(self):
        return frozenset((self.table,))

    def _estimate(self, ctx):
        raise OptimizerError("IndexLookup cannot be costed outside an INL join")


class Aggregate(PlanNode):
    """Hash aggregation: COUNT(*) per group (global count when no groups).

    Output cardinality is capped by the product of the group columns'
    distinct-value hints (falling back to their tables' row counts), and
    is therefore monotone non-decreasing in every selectivity — PCM is
    preserved.
    """

    def __init__(self, child: PlanNode, group_columns: Tuple[Tuple[str, str], ...] = ()):
        if isinstance(child, IndexLookup):
            raise OptimizerError("aggregate cannot consume an IndexLookup")
        self.child = child
        self.group_columns = tuple(sorted(group_columns))
        self.children = (child,)

    def signature(self):
        groups = ",".join(f"{t}.{c}" for t, c in self.group_columns)
        return f"AGG({self.child.canonical_signature()}|{groups})"

    @property
    def local_pids(self):
        return frozenset()

    def tables(self):
        return self.child.tables()

    def group_limit(self, ctx: CostContext) -> float:
        """Upper bound on the number of groups."""
        limit = 1.0
        for table, column in self.group_columns:
            col = ctx.schema.table(table).column(column)
            hint = col.distinct
            limit *= float(hint if hint else ctx.schema.table(table).row_count)
        return limit

    def _estimate(self, ctx):
        return self.combine(ctx, self.child.estimate(ctx))

    def combine(self, ctx: CostContext, child: NodeEstimate) -> NodeEstimate:
        """This node's estimate given its input's: the formula reads the
        child's ``(rows, cost)`` only, never its shape."""
        model = ctx.cost_model
        if self.group_columns:
            rows_out = np.minimum(child.rows, self.group_limit(ctx))
        else:
            rows_out = 1.0
        cost = child.cost + child.rows * (
            model.hash_tuple_cost + len(self.group_columns) * model.cpu_operator_cost
        )
        cost = cost + rows_out * model.cpu_tuple_cost
        return NodeEstimate(rows=rows_out, cost=cost)


#: Join algorithm tags.
JOIN_ALGOS = ("hash", "merge", "nl", "inl")

_ALGO_LABEL = {"hash": "HJ", "merge": "MJ", "nl": "NL", "inl": "INL"}


class Join(PlanNode):
    """A binary join.

    Conventions: for ``hash`` the right child is the build side; for
    ``nl`` the right child is materialized and rescanned; for ``inl`` the
    right child must be an :class:`IndexLookup`.
    """

    def __init__(
        self,
        algo: str,
        left: PlanNode,
        right: PlanNode,
        join_pids: Tuple[str, ...],
    ):
        if algo not in JOIN_ALGOS:
            raise OptimizerError(f"unknown join algorithm {algo!r}")
        if algo == "inl" and not isinstance(right, IndexLookup):
            raise OptimizerError("inl join requires an IndexLookup inner side")
        if algo != "inl" and isinstance(right, IndexLookup):
            raise OptimizerError(f"{algo} join cannot consume an IndexLookup")
        if not join_pids:
            raise OptimizerError("join requires at least one join predicate")
        self.algo = algo
        self.left = left
        self.right = right
        self.join_pids = tuple(sorted(join_pids))
        self.children = (left, right)

    def signature(self):
        label = _ALGO_LABEL[self.algo]
        return f"{label}({self.left.canonical_signature()},{self.right.canonical_signature()})"

    @property
    def local_pids(self):
        # An INL join also evaluates the inner side's residual filters
        # (per-lookup); IndexLookup itself reports none — see its docs.
        if self.algo == "inl":
            inner: IndexLookup = self.right  # type: ignore[assignment]
            return frozenset(self.join_pids) | frozenset(inner.filter_pids)
        return frozenset(self.join_pids)

    def tables(self):
        return self.left.tables() | self.right.tables()

    def _estimate(self, ctx):
        right = None if self.algo == "inl" else self.right.estimate(ctx)
        return self.combine(ctx, self.left.estimate(ctx), right)

    def combine(
        self,
        ctx: CostContext,
        left: NodeEstimate,
        right: Optional[NodeEstimate],
    ) -> NodeEstimate:
        """This join's estimate given its inputs' (``right`` is unused by
        ``inl``, whose inner side is folded into the formula).

        The formulas read the children's ``(rows, cost)`` only, which is
        what lets the slab DP (:mod:`repro.batchopt`) cost a candidate on
        each child subset's per-location *best* estimates without
        knowing which plan achieved them.
        """
        model = ctx.cost_model
        join_sel = ctx.product(self.join_pids)

        if self.algo == "inl":
            inner: IndexLookup = self.right  # type: ignore[assignment]
            table = ctx.schema.table(inner.table)
            matched_per_outer = join_sel * table.row_count
            residual_sel = ctx.product(inner.filter_pids)
            rows_out = left.rows * matched_per_outer * residual_sel
            per_lookup = model.random_page_cost  # B-tree descent to leaf
            per_match = (
                model.cpu_index_tuple_cost
                + model.random_page_cost  # heap fetch
                + model.cpu_tuple_cost
                + len(inner.filter_pids) * model.cpu_operator_cost
            )
            cost = left.cost + left.rows * per_lookup
            cost = cost + left.rows * matched_per_outer * per_match
            cost = cost + rows_out * model.cpu_tuple_cost
            return NodeEstimate(rows=rows_out, cost=cost)

        rows_out = join_sel * left.rows * right.rows
        if self.algo == "hash":
            cost = left.cost + right.cost
            cost = cost + right.rows * model.hash_tuple_cost  # build
            cost = cost + left.rows * model.hash_tuple_cost  # probe
            cost = cost + rows_out * model.cpu_tuple_cost
        elif self.algo == "merge":
            cost = left.cost + right.cost
            cost = cost + (model.sort_cost(left.rows) + model.sort_cost(right.rows))
            cost = cost + (left.rows + right.rows) * model.cpu_operator_cost
            cost = cost + rows_out * model.cpu_tuple_cost
        elif self.algo == "nl":
            cost = left.cost + right.cost
            cost = cost + right.rows * model.cpu_tuple_cost  # materialize inner
            cost = cost + left.rows * right.rows * model.cpu_operator_cost
            cost = cost + rows_out * model.cpu_tuple_cost
        else:  # pragma: no cover - guarded in __init__
            raise OptimizerError(f"unhandled join algorithm {self.algo!r}")
        return NodeEstimate(rows=rows_out, cost=cost)


# ---------------------------------------------------------------------------
# Plan-level helpers
# ---------------------------------------------------------------------------


def cost_plan(
    plan: PlanNode,
    schema: Schema,
    cost_model: CostModel,
    assignment: Mapping[str, float],
) -> NodeEstimate:
    """Cost a complete plan at one selectivity assignment."""
    ctx = CostContext(schema, cost_model, assignment)
    return plan.estimate(ctx)


def formula_inputs(node: PlanNode, ctx: CostContext) -> Tuple[Optional[NodeEstimate], ...]:
    """What ``node``'s own formula reads besides its local pids, costed
    in ``ctx``: a join's ``(left, right)`` estimates (``inl`` folds its
    inner side in: ``right`` is ``None``), nothing for a scan."""
    if not isinstance(node, Join):
        return ()
    return node.left.estimate(ctx), None if node.algo == "inl" else node.right.estimate(ctx)


def own_formula(
    node: PlanNode, inputs: Sequence[Optional[NodeEstimate]]
) -> Callable[[CostContext], NodeEstimate]:
    """``node``'s own formula over ``inputs`` estimated once
    (:func:`formula_inputs`): the node's estimate at any context that
    differs from theirs only in pids its inputs do not read (a spill
    node's targets) — same floats as costing its whole subtree there,
    without re-walking it."""
    if not inputs:
        return node._estimate
    return lambda at: node.combine(at, *inputs)


def first_error_node(
    plan: PlanNode, error_pids: FrozenSet[str]
) -> Optional[PlanNode]:
    """First node in execution (post-) order that evaluates an error pid.

    Its subtree is error-free below it, so its output tuple count yields an
    exact lower bound for the error selectivities evaluated at the node —
    the basis of the selectivity-monitoring machinery of §5.2.
    """
    for node in plan.postorder():
        if node.local_pids & error_pids:
            return node
    return None


def error_node_depth(plan: PlanNode, error_pids: FrozenSet[str]) -> int:
    """Depth (from the root, root=0) of the deepest error-prone node.

    Used by the AxisPlans heuristic: deeper error nodes mean less budget is
    wasted on error-free upstream work.  Returns -1 if no error node.
    """
    best = -1

    def walk(node: PlanNode, depth: int):
        nonlocal best
        if node.local_pids & error_pids:
            best = max(best, depth)
        for child in node.children:
            walk(child, depth + 1)

    walk(plan, 0)
    return best


def spilled_cost(
    plan: PlanNode,
    schema: Schema,
    cost_model: CostModel,
    assignment: Mapping[str, float],
    error_pids: FrozenSet[str],
) -> Tuple[float, FrozenSet[str]]:
    """Cost of the *spilled* execution of ``plan`` (§5.3).

    The pipeline is broken immediately after the first error-prone node and
    its output discarded, so only that node's subtree is executed.  Returns
    ``(cost, learned_pids)`` where ``learned_pids`` are the error pids whose
    selectivities the spilled run measures.  Falls back to the full plan
    cost when the plan has no error-prone node.
    """
    node = first_error_node(plan, error_pids)
    est = cost_plan(node or plan, schema, cost_model, assignment)
    return est.cost, node.local_pids & error_pids if node else frozenset()
