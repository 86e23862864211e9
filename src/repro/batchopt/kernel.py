"""Batch-vectorized DPsize join enumeration over ESS location slabs.

The scalar optimizer runs one full DPsize enumeration per ESS location;
a D-dimensional grid therefore pays thousands of redundant DP runs that
differ only in leaf selectivities.  This kernel runs the enumeration
**once per query shape** while carrying a numpy cost axis over a *slab*
of locations:

* the selectivity assignment becomes a column table — each pid maps to
  a python float (constant over the slab) or a 1-D array of
  per-location values — and every operator cost formula evaluates
  elementwise through the ordinary :class:`~repro.optimizer.plans`
  arithmetic;
* the DP table keeps, per connected subset, a *frontier* of plans that
  are cheapest at >= 1 location (a per-location argmin over the cost
  axis) instead of a single winner;
* join candidates for a subset are generated per (left winner, right
  winner) pair actually realised somewhere in the slab, and candidate
  costs update the running minimum only under that pair's location
  mask.

The masked updates replicate the scalar DP's semantics *per location*
exactly — including its first-candidate-wins tie-breaking (strict ``<``
against the running best) — so the batch result at every location
provably equals the scalar :meth:`Optimizer.optimize` result, and the
two engines may be used interchangeably
(``tests/optimizer/test_batchopt.py`` asserts this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..catalog.schema import Schema
from ..exceptions import OptimizerError, QueryError
from ..optimizer.cost_model import CostModel
from ..optimizer.joinorder import JoinEnumerator, access_paths
from ..optimizer.plans import Aggregate, CostContext, PlanNode
from ..query.query import Query

__all__ = ["BatchPlanChoice", "batch_best_plans", "stack_assignments"]


@dataclass
class BatchPlanChoice:
    """Per-location winners of one batch enumeration.

    ``plans`` is the top-level frontier (every plan optimal somewhere in
    the slab); ``winner[i]`` indexes into it for location ``i``;
    ``cost``/``rows`` are the winning estimates, one entry per location.
    """

    plans: List[PlanNode]
    winner: np.ndarray
    cost: np.ndarray
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.winner)

    @property
    def frontier_size(self) -> int:
        return len(self.plans)

    def plan_at(self, index: int) -> PlanNode:
        return self.plans[int(self.winner[index])]


def stack_assignments(
    assignments: Sequence[Mapping[str, float]],
) -> Tuple[Dict[str, object], int]:
    """Turn per-location assignments into slab columns.

    Each pid maps to a python float when its value is constant across
    the slab (the common case: only error-dimension pids vary) or to a
    1-D float array otherwise.  Constant pids keep leaf estimates scalar,
    which the frontier selection broadcasts lazily.
    """
    if not assignments:
        raise OptimizerError("optimize_batch needs at least one location")
    first = assignments[0]
    pids = set(first)
    columns: Dict[str, object] = {}
    for assignment in assignments[1:]:
        if set(assignment) != pids:
            raise QueryError(
                "batch assignments must cover identical predicate sets"
            )
    for pid in first:
        values = [assignment[pid] for assignment in assignments]
        head = values[0]
        if all(value == head for value in values[1:]):
            columns[pid] = float(head)
        else:
            columns[pid] = np.asarray(values, dtype=float)
    return columns, len(assignments)


def validate_columns(query: Query, columns: Mapping[str, object], length: int):
    """Slab-aware counterpart of ``selectivity.validate_assignment``."""
    expected = set(query.predicate_ids)
    got = set(columns)
    if expected - got:
        missing = ", ".join(sorted(expected - got))
        raise QueryError(f"assignment is missing selectivities for: {missing}")
    for pid, column in columns.items():
        values = np.asarray(column, dtype=float)
        if values.ndim not in (0, 1) or (values.ndim == 1 and values.size != length):
            raise QueryError(
                f"selectivity column for {pid!r} does not match slab length"
            )
        if np.any(values <= 0.0) or np.any(values > 1.0):
            raise QueryError(f"selectivity for {pid!r} out of (0, 1]")


class _FrontierBuilder:
    """Running per-location argmin over an ordered candidate stream.

    Mirrors the scalar DP's ``entry is None or cost < entry.cost``
    update: the running best starts at +inf and a candidate takes a
    location only where it is *strictly* cheaper, so the first candidate
    (in enumeration order) wins every tie, exactly as in the scalar
    path.  ``mask`` restricts a candidate to the locations where its
    child winner pair is actually realised.
    """

    def __init__(self, length: int):
        self.length = length
        self.plans: List[PlanNode] = []
        self.cost = np.full(length, np.inf)
        self.rows = np.full(length, np.nan)
        self.winner = np.full(length, -1, dtype=np.intp)

    def _full(self, value) -> np.ndarray:
        array = np.asarray(value, dtype=float)
        if array.ndim == 0:
            return np.broadcast_to(array, (self.length,))
        return array

    def offer(self, plan: PlanNode, cost, rows, mask: Optional[np.ndarray] = None):
        cost = self._full(cost)
        rows = self._full(rows)
        take = cost < self.cost
        if mask is not None:
            take &= mask
        if not take.any():
            # Still record the plan so winner indices stay aligned with
            # the enumeration; compacted away below.
            self.plans.append(plan)
            return
        index = len(self.plans)
        self.plans.append(plan)
        self.cost[take] = cost[take]
        self.rows[take] = rows[take]
        self.winner[take] = index

    def finish(self) -> "_Frontier":
        if (self.winner < 0).any():
            raise OptimizerError("batch enumeration left locations unplanned")
        kept = np.unique(self.winner)
        remap = np.full(len(self.plans), -1, dtype=np.intp)
        remap[kept] = np.arange(len(kept), dtype=np.intp)
        return _Frontier(
            plans=[self.plans[int(i)] for i in kept],
            winner=remap[self.winner],
            cost=self.cost,
            rows=self.rows,
        )


@dataclass
class _Frontier:
    """Compacted subset entry: only plans that win >= 1 location remain."""

    plans: List[PlanNode]
    winner: np.ndarray
    cost: np.ndarray
    rows: np.ndarray


def _winner_pairs(
    left: _Frontier, right: _Frontier, length: int
) -> List[Tuple[int, int, Optional[np.ndarray]]]:
    """(left index, right index, mask) for every realised winner pair.

    A ``None`` mask means the pair is the winner everywhere (the common
    single-plan-frontier case, which keeps the fast path branch-free).
    """
    if len(left.plans) == 1 and len(right.plans) == 1:
        return [(0, 0, None)]
    key = left.winner * len(right.plans) + right.winner
    pairs: List[Tuple[int, int, Optional[np.ndarray]]] = []
    for packed in np.unique(key):
        i, j = divmod(int(packed), len(right.plans))
        pairs.append((i, j, key == packed))
    return pairs


def batch_best_plans(
    query: Query,
    schema: Schema,
    cost_model: CostModel,
    columns: Mapping[str, object],
    length: int,
    enumerator: Optional[JoinEnumerator] = None,
) -> BatchPlanChoice:
    """Run the frontier DP over one slab; returns per-location winners.

    ``columns`` is the slab column table from :func:`stack_assignments`;
    ``enumerator`` is the query's (cached) :class:`JoinEnumerator` for
    multi-table queries.
    """
    ctx = CostContext.for_slab(schema, cost_model, columns)

    if len(query.tables) == 1:
        builder = _FrontierBuilder(length)
        for path in access_paths(query, query.tables[0]):
            est = path.estimate(ctx)
            builder.offer(path, est.cost, est.rows)
        top = builder.finish()
    else:
        if enumerator is None:
            enumerator = JoinEnumerator(query, schema)
        top = _enumerate_joins(enumerator, cost_model, ctx, length)

    if query.aggregate:
        top = _wrap_aggregate(query, top, ctx, length)
    return BatchPlanChoice(
        plans=top.plans, winner=top.winner, cost=top.cost, rows=top.rows
    )


def _enumerate_joins(
    enumerator: JoinEnumerator,
    cost_model: CostModel,
    ctx: CostContext,
    length: int,
) -> _Frontier:
    frontiers: Dict[FrozenSet[str], _Frontier] = {}

    for table in enumerator.tables:
        builder = _FrontierBuilder(length)
        for path in enumerator.access_path_candidates(table):
            est = path.estimate(ctx)
            builder.offer(path, est.cost, est.rows)
        frontiers[frozenset((table,))] = builder.finish()

    subsets_by_size: Dict[int, List[FrozenSet[str]]] = {}
    for subset in enumerator.partitions:
        subsets_by_size.setdefault(len(subset), []).append(subset)

    for size in range(2, len(enumerator.tables) + 1):
        for subset in subsets_by_size.get(size, []):
            builder = _FrontierBuilder(length)
            for left_set, right_set, join_pids in enumerator.partitions[subset]:
                left = frontiers.get(left_set)
                right = frontiers.get(right_set)
                if left is None or right is None:
                    continue
                for i, j, mask in _winner_pairs(left, right, length):
                    for plan in enumerator.join_candidates(
                        left.plans[i],
                        right.plans[j],
                        left_set,
                        right_set,
                        join_pids,
                        cost_model,
                    ):
                        est = plan.estimate(ctx)
                        builder.offer(plan, est.cost, est.rows, mask)
            try:
                frontiers[subset] = builder.finish()
            except OptimizerError:
                raise OptimizerError(
                    f"no join plan found for subset {sorted(subset)}"
                ) from None

    top = frontiers.get(frozenset(enumerator.tables))
    if top is None:
        raise OptimizerError("join enumeration failed to cover all tables")
    return top


def _wrap_aggregate(
    query: Query, top: _Frontier, ctx: CostContext, length: int
) -> _Frontier:
    """Wrap each frontier winner in the query's aggregate and re-cost it.

    The scalar path wraps its single winner and re-costs the whole tree;
    child estimates are memoized in the slab context, so each wrap only
    pays the aggregate node's own arithmetic.
    """
    cost = np.empty(length)
    rows = np.empty(length)
    plans: List[PlanNode] = []
    for index, plan in enumerate(top.plans):
        aggregate = Aggregate(plan, query.group_by)
        est = aggregate.estimate(ctx)
        mask = top.winner == index
        cost[mask] = np.broadcast_to(np.asarray(est.cost, dtype=float), (length,))[mask]
        rows[mask] = np.broadcast_to(np.asarray(est.rows, dtype=float), (length,))[mask]
        plans.append(aggregate)
    return _Frontier(plans=plans, winner=top.winner.copy(), cost=cost, rows=rows)
