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
* the DP table keeps, per connected subset, the per-location **best**
  ``(cost, rows)`` arrays plus one back-pointer per location — the index
  of the candidate that won there — instead of a single winner;
* a join candidate of a partition ``(L, R)`` is built and costed
  **once**, unmasked, over the whole slab, with the children's best
  arrays as its inputs.  The join formulas
  (:meth:`~repro.optimizer.plans.Join.combine`) read only the children's
  ``(rows, cost)`` and the candidate list depends only on ``(L, R,
  join_pids, cost_model)``, so *which* plan achieved a child's best at a
  location never enters the recurrence: a whole-grid compile offers
  exactly the candidates one scalar DP offers at one location;
* the winners' identities are recovered at the end by following the
  back-pointers: per subset, the distinct ``(candidate, left plan, right
  plan)`` triples realised over the slab are numbered with one
  ``np.unique``, and the plan trees of the top-level winners are built
  from them on demand, sharing sub-plan objects.

The running per-location minimum replicates the scalar DP's semantics
*per location* exactly — same partition and candidate order, same
first-candidate-wins tie-breaking (strict ``<`` against the running
best), the same IEEE operations in the same order — so the batch result
at every location equals the scalar :meth:`Optimizer.optimize` result
bit for bit, whatever the slab's order or duplicates
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
from ..optimizer.plans import Aggregate, CostContext, Join, NodeEstimate, PlanNode
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


class _Frontier(PlanNode):
    """One connected subset's DP entry over the slab.

    ``best`` is the per-location winning ``(rows, cost)``.  A frontier is
    also the stand-in child — "whichever plan is best here" — of the
    next size's join candidates, which is why those are built and costed
    once per slab.

    ``winner[i]``, the back-pointer, is the index into ``candidates`` of
    the candidate that won location ``i``; the subset's plan there is
    that candidate over the children's plans there.  ``slot[i]`` numbers
    the distinct plans so realised and ``recipes[slot]`` is the
    ``(candidate, left slot, right slot)`` each is made of; :meth:`plan`
    builds the tree on demand and once, so only sub-plans that a
    returned plan embeds are constructed and every tree that embeds one
    holds the same object.
    """

    def __init__(
        self,
        candidates: List[PlanNode],
        winner: np.ndarray,
        best: NodeEstimate,
    ):
        self.candidates = candidates
        self.best = best
        self._plans: Dict[int, PlanNode] = {}
        # Which of each child's plans sits under the winner, per location.
        lefts = np.zeros(len(winner), dtype=np.intp)
        rights = np.zeros(len(winner), dtype=np.intp)
        won = np.flatnonzero(np.bincount(winner, minlength=len(candidates)))
        for k in won.tolist():
            candidate = candidates[k]
            if isinstance(candidate, Join):  # an access path has no children
                here = winner == k
                np.copyto(lefts, candidate.left.slot, where=here)
                if isinstance(candidate.right, _Frontier):  # not an inl lookup
                    np.copyto(rights, candidate.right.slot, where=here)
        shape = (len(candidates), lefts.max() + 1, rights.max() + 1)
        triples, self.slot = np.unique(
            np.ravel_multi_index((winner, lefts, rights), shape), return_inverse=True
        )
        self.recipes: List[Tuple[int, int, int]] = list(
            zip(*(part.tolist() for part in np.unravel_index(triples, shape)))
        )

    def signature(self):
        return f"BEST[{len(self.candidates)} candidates]"

    def plan(self, slot: int) -> PlanNode:
        plan = self._plans.get(slot)
        if plan is None:
            k, i, j = self.recipes[slot]
            plan = self.candidates[k]
            if isinstance(plan, Join):
                right = plan.right
                if isinstance(right, _Frontier):
                    right = right.plan(j)
                plan = Join(plan.algo, plan.left.plan(i), right, plan.join_pids)
            self._plans[slot] = plan
        return plan


class _FrontierBuilder:
    """Running per-location argmin over an ordered candidate stream.

    Mirrors the scalar DP's ``entry is None or cost < entry.cost``
    update: the running best starts at +inf and a candidate takes a
    location only where it is *strictly* cheaper, so the first candidate
    (in enumeration order) wins every tie, exactly as in the scalar
    path.  Estimates may be python floats (every pid the candidate reads
    is constant over the slab); they broadcast.
    """

    def __init__(self, length: int):
        self.candidates: List[PlanNode] = []
        self.cost = np.full(length, np.inf)
        self.rows = np.full(length, np.nan)
        self.winner = np.full(length, -1, dtype=np.intp)

    def offer(self, plan: PlanNode, est: NodeEstimate) -> None:
        take = est.cost < self.cost
        if take.any():
            np.copyto(self.cost, est.cost, where=take)
            np.copyto(self.rows, est.rows, where=take)
            np.copyto(self.winner, len(self.candidates), where=take)
        self.candidates.append(plan)

    def finish(self) -> _Frontier:
        if (self.winner < 0).any():
            raise OptimizerError("batch enumeration left locations unplanned")
        return _Frontier(
            self.candidates,
            self.winner,
            NodeEstimate(rows=self.rows, cost=self.cost),
        )


def batch_best_plans(
    query: Query,
    schema: Schema,
    cost_model: CostModel,
    columns: Mapping[str, object],
    length: int,
    enumerator: Optional[JoinEnumerator] = None,
) -> BatchPlanChoice:
    """Run the slab DP; returns per-location winners.

    ``columns`` is the slab column table from :func:`stack_assignments`;
    ``enumerator`` is the query's (cached) :class:`JoinEnumerator` for
    multi-table queries.
    """
    ctx = CostContext.for_slab(schema, cost_model, columns)

    if len(query.tables) == 1:
        top = _best_access_path(access_paths(query, query.tables[0]), ctx, length)
    else:
        if enumerator is None:
            enumerator = JoinEnumerator(query, schema)
        top = _enumerate_joins(enumerator, cost_model, ctx, length)

    plans = [top.plan(slot) for slot in range(len(top.recipes))]
    best = top.best
    if query.aggregate:
        # The scalar path wraps its winner and re-costs the whole tree;
        # the aggregate formula reads the child's estimate only, which at
        # every location is the top frontier's best.
        plans = [Aggregate(plan, query.group_by) for plan in plans]
        best = plans[0].combine(ctx, best)
    return BatchPlanChoice(
        plans=plans,
        winner=top.slot,
        cost=best.cost,
        rows=np.broadcast_to(best.rows, (length,)),
    )


def _best_access_path(
    paths: Sequence[PlanNode], ctx: CostContext, length: int
) -> _Frontier:
    builder = _FrontierBuilder(length)
    for path in paths:
        builder.offer(path, path.estimate(ctx))
    return builder.finish()


def _enumerate_joins(
    enumerator: JoinEnumerator,
    cost_model: CostModel,
    ctx: CostContext,
    length: int,
) -> _Frontier:
    frontiers: Dict[FrozenSet[str], _Frontier] = {
        frozenset((table,)): _best_access_path(
            enumerator.access_path_candidates(table), ctx, length
        )
        for table in enumerator.tables
    }

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
                for plan in enumerator.join_candidates(
                    left, right, left_set, right_set, join_pids, cost_model
                ):
                    inner = None if plan.algo == "inl" else plan.right.best
                    builder.offer(plan, plan.combine(ctx, plan.left.best, inner))
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
