"""DPsize join enumeration over a slab of ESS locations.

One enumeration per query shape serves every location of a *slab*; a
one-location slab is the plain DP on floats:

* the selectivity assignment is a column table — each pid maps to a
  python float (constant over the slab) or an array of per-location
  values, and the arrays broadcast against each other (1-D columns for
  a flat slab; for an ESS grid, ``SelectivitySpace.grid_columns`` gives
  each error pid its own axis).  Every operator formula evaluates
  elementwise through the ordinary :mod:`~repro.optimizer.plans`
  arithmetic;
* the DP keeps, per connected subset, the **best** ``(cost, rows)`` and
  a back-pointer — the index of the candidate that won — at the
  broadcast shape of the columns the subset's predicates read: a float
  where they read no varying pid, ``res^k`` cells where they touch ``k``
  of a grid's axes;
* a join candidate of a split ``(L, R)`` is built and costed **once**,
  on the children's best: the join formulas
  (:meth:`~repro.optimizer.plans.Join.combine`) read only the children's
  ``(rows, cost)``, so *which* plan achieved a child's best never enters
  the recurrence, and a whole-grid compile offers exactly the candidates
  one location's DP offers;
* the winners are recovered from the back-pointers: the distinct
  ``(candidate, left plan, right plan)`` triples of a subset are numbered
  with one ``np.unique`` (none for a constant subset), plan trees are
  built on demand, sharing sub-plan objects, and only the top subset's
  winners are spread over the slab.

The running minimum is the scalar DP's per location — same split and
candidate order, first candidate winning ties (strict ``<``), the same
IEEE operations in the same order — so every location's result is the
scalar DP's bit for bit, whatever the slab's layout, order or duplicates
(``tests/optimizer/test_batchopt.py`` holds it to the scalar DP kept in
``tests/conftest.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Sequence, Tuple

import numpy as np

from ..exceptions import OptimizerError, QueryError
from ..optimizer.cost_model import CostModel
from ..optimizer.joinorder import JoinEnumerator
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
    """Turn per-location assignments into slab columns: a python float
    for a pid constant across the slab (the common case: only
    error-dimension pids vary), a 1-D float array otherwise."""
    if not assignments:
        raise OptimizerError("optimize_batch needs at least one location")
    pids = set(assignments[0])
    if any(set(assignment) != pids for assignment in assignments[1:]):
        raise QueryError("batch assignments must cover identical predicate sets")
    columns: Dict[str, object] = {}
    for pid in assignments[0]:
        values = [assignment[pid] for assignment in assignments]
        head = values[0]
        if all(value == head for value in values[1:]):
            columns[pid] = float(head)
        else:
            columns[pid] = np.asarray(values, dtype=float)
    return columns, len(assignments)


def validate_columns(
    query: Query, columns: Mapping[str, object], length: int
) -> Tuple[int, ...]:
    """The check of an assignment's columns: every pid covered, every
    selectivity in (0, 1], and the columns
    broadcast to a slab of ``length`` locations.  Returns the slab's
    shape (``(length,)`` when every column is a float)."""
    expected = set(query.predicate_ids)
    got = set(columns)
    if expected - got:
        missing = ", ".join(sorted(expected - got))
        raise QueryError(f"assignment is missing selectivities for: {missing}")
    shapes = []
    for pid, column in columns.items():
        if isinstance(column, np.ndarray):
            inside = np.all((column > 0.0) & (column <= 1.0))
            shapes.append(column.shape)
        else:
            inside = 0.0 < column <= 1.0
        if not inside:
            raise QueryError(f"selectivity for {pid!r} out of (0, 1]")
    if not shapes:
        return (length,)
    try:
        shape = np.broadcast_shapes(*shapes)
    except ValueError:
        raise QueryError("selectivity columns do not broadcast") from None
    if not shape:
        return (length,)
    if math.prod(shape) != length:
        raise QueryError("selectivity columns do not match slab length")
    return shape


class _Frontier(PlanNode):
    """One connected subset's DP entry: ``best``, the winning ``(rows,
    cost)`` at the subset's ``shape``, and ``winner``, the back-pointer
    into ``candidates`` per cell (an int when ``shape`` is ``()``).  It
    is also the stand-in child — "whichever plan is best here" — of the
    next size's join candidates.

    ``slot`` numbers the distinct plans realised over the cells and
    ``recipes[slot]`` is the ``(candidate, left slot, right slot)`` each
    is made of; :meth:`plan` builds a tree on demand and once, so every
    tree that embeds a sub-plan holds the same object.
    """

    def __init__(
        self,
        candidates: List[PlanNode],
        winner,
        best: NodeEstimate,
        shape: Tuple[int, ...],
    ):
        self.candidates = candidates
        self.winner = winner
        self.best = best
        self.shape = shape
        self._plans: Dict[int, PlanNode] = {}
        self._numbering = None

    @property
    def slot(self):
        return self._number()[0]

    @property
    def recipes(self) -> List[Tuple[int, int, int]]:
        return self._number()[1]

    def _number(self):
        """``(slot, recipes)``, numbered on first use: only subsets
        under a returned plan are ever asked."""
        if self._numbering is None:
            self._numbering = self._numbered()
        return self._numbering

    def _numbered(self):
        winner, candidates = self.winner, self.candidates
        if not self.shape:
            # Constant over the slab, and so are the winner's children.
            candidate = candidates[winner]
            left = right = 0
            if isinstance(candidate, Join):
                left = candidate.left.slot
                if isinstance(candidate.right, _Frontier):
                    right = candidate.right.slot
            return 0, [(winner, left, right)]
        # Which of each child's plans sits under the winner, per cell.
        lefts = np.zeros(self.shape, dtype=np.intp)
        rights = np.zeros(self.shape, dtype=np.intp)
        won = np.flatnonzero(np.bincount(winner.ravel(), minlength=len(candidates)))
        for k in won.tolist():
            candidate = candidates[k]
            if isinstance(candidate, Join):  # an access path has no children
                here = winner == k
                np.copyto(lefts, candidate.left.slot, where=here)
                if isinstance(candidate.right, _Frontier):  # not an inl lookup
                    np.copyto(rights, candidate.right.slot, where=here)
        shape = (len(candidates), lefts.max() + 1, rights.max() + 1)
        triples, slot = np.unique(
            np.ravel_multi_index((winner, lefts, rights), shape), return_inverse=True
        )
        recipes = list(zip(*(part.tolist() for part in np.unravel_index(triples, shape))))
        return slot.reshape(self.shape), recipes

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
    """Running argmin over one subset's candidates, in enumeration order.

    The scalar DP's ``entry is None or cost < entry.cost``: the best
    starts at +inf and a candidate takes a cell only where it is
    *strictly* cheaper, so the first candidate wins every tie.  Every
    candidate reads the subset's predicates and no others, so ``shape``,
    the broadcast of their columns, holds each one's estimate; at ``()``
    the sweep runs on plain floats.
    """

    def __init__(self, shape: Tuple[int, ...]):
        self.shape = shape
        self.candidates: List[PlanNode] = []
        if shape:
            self.cost = np.full(shape, np.inf)
            self.rows = np.full(shape, np.nan)
            self.winner = np.full(shape, -1, dtype=np.intp)
        else:
            self.cost, self.rows, self.winner = np.inf, np.nan, -1

    def offer(self, plan: PlanNode, est: NodeEstimate) -> None:
        if self.shape:
            take = est.cost < self.cost
            if np.count_nonzero(take):
                np.copyto(self.cost, est.cost, where=take)
                np.copyto(self.rows, est.rows, where=take)
                np.copyto(self.winner, len(self.candidates), where=take)
        elif est.cost < self.cost:
            self.cost, self.rows, self.winner = est.cost, est.rows, len(self.candidates)
        self.candidates.append(plan)

    def finish(self) -> _Frontier:
        if (self.winner < 0).any() if self.shape else self.winner < 0:
            raise OptimizerError("batch enumeration left locations unplanned")
        return _Frontier(
            self.candidates,
            self.winner,
            NodeEstimate(self.rows, self.cost),
            self.shape,
        )


def _broadcast(columns: Mapping[str, object], pids, *shapes) -> Tuple[int, ...]:
    """The broadcast of ``shapes`` and of the columns of ``pids``.  Slab
    columns broadcast (:func:`validate_columns`): each axis is 1 or one
    length, so the broadcast takes the largest."""
    shapes = [shape for shape in shapes if shape]
    for pid in pids:
        column = columns[pid]
        if isinstance(column, np.ndarray) and column.shape:
            shapes.append(column.shape)
    if not shapes:
        return ()
    ndim = max(map(len, shapes))
    return tuple(map(max, zip(*((1,) * (ndim - len(s)) + s for s in shapes))))


def batch_best_plans(
    enumerator: JoinEnumerator,
    cost_model: CostModel,
    columns: Mapping[str, object],
    shape: Tuple[int, ...],
) -> BatchPlanChoice:
    """Run the slab DP over ``enumerator``'s query; returns per-location
    winners in row-major order.

    ``columns`` is a slab column table (:func:`stack_assignments`,
    ``SelectivitySpace.slab_columns`` / ``grid_columns``) and ``shape``
    the slab's, as :func:`validate_columns` returns it.
    """
    query = enumerator.query
    ctx = CostContext.for_slab(enumerator.schema, cost_model, columns)
    top = _enumerate_joins(enumerator, cost_model, ctx)
    plans = [top.plan(slot) for slot in range(len(top.recipes))]
    best = top.best
    if query.aggregate:
        # The aggregate formula reads the child's estimate only, which
        # at every location is the top frontier's best.
        plans = [Aggregate(plan, query.group_by) for plan in plans]
        best = plans[0].combine(ctx, best)
    return BatchPlanChoice(
        plans=plans,
        winner=_spread(top.slot, shape),
        cost=_spread(best.cost, shape),
        rows=_spread(best.rows, shape),
    )


def _spread(value, shape: Tuple[int, ...]) -> np.ndarray:
    """``value`` broadcast over the slab, one entry per location."""
    if isinstance(value, np.ndarray):
        return np.broadcast_to(value, shape).flatten()
    return np.full(math.prod(shape), value)


def _best_access_path(paths: Sequence[PlanNode], ctx: CostContext) -> _Frontier:
    # The sequential scan, first of the paths, reads every selection.
    builder = _FrontierBuilder(_broadcast(ctx.assignment, paths[0].local_pids))
    for path in paths:
        builder.offer(path, path.estimate(ctx))
    return builder.finish()


def _enumerate_joins(
    enumerator: JoinEnumerator, cost_model: CostModel, ctx: CostContext
) -> _Frontier:
    frontiers: Dict[FrozenSet[str], _Frontier] = {
        frozenset((table,)): _best_access_path(
            enumerator.access_path_candidates(table), ctx
        )
        for table in enumerator.tables
    }

    for subset in enumerator.subsets:
        splits = enumerator.partitions[subset]
        # Every split reads all of the subset's predicates.
        left_set, right_set, join_pids = splits[0]
        builder = _FrontierBuilder(
            _broadcast(
                ctx.assignment,
                join_pids,
                frontiers[left_set].shape,
                frontiers[right_set].shape,
            )
        )
        for left_set, right_set, join_pids in splits:
            for plan in enumerator.join_candidates(
                frontiers[left_set],
                frontiers[right_set],
                left_set,
                right_set,
                join_pids,
                cost_model,
            ):
                inner = None if plan.algo == "inl" else plan.right.best
                builder.offer(plan, plan.combine(ctx, plan.left.best, inner))
        frontiers[subset] = builder.finish()

    try:
        return frontiers[frozenset(enumerator.tables)]
    except KeyError:
        raise OptimizerError("join enumeration failed to cover all tables") from None
