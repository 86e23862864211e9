"""Selectivity assignments: estimated, actual, and injected.

A *selectivity assignment* maps predicate ids (pids) to selectivities in
``(0, 1]``.  Three sources exist:

* :func:`estimate_selectivities` — what a native optimizer believes, from
  (possibly stale) statistics, AVI and magic numbers.  This is the NAT
  baseline's world view.
* :func:`actual_selectivities` — ground truth measured on the data.
* :func:`inject` — overriding chosen pids with arbitrary values, the
  "selectivity injection" facility of §4.2 that the whole ESS/POSP
  machinery is built on.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..catalog.statistics import (
    MAGIC_EQUALITY_SELECTIVITY,
    MAGIC_RANGE_SELECTIVITY,
    DatabaseStatistics,
)
from ..datagen.database import Database
from ..exceptions import QueryError
from ..query.predicates import JoinPredicate, SelectionPredicate
from ..query.query import Query

#: Selectivities are clamped to this floor to keep cost functions finite.
MIN_SELECTIVITY = 1e-9

SelectivityAssignment = Dict[str, float]


def _clamp(value: float) -> float:
    return min(1.0, max(MIN_SELECTIVITY, value))


def estimate_selection(
    pred: SelectionPredicate, stats: Optional[DatabaseStatistics]
) -> float:
    """Estimate a selection predicate from statistics (or magic numbers)."""
    col_stats = None if stats is None else stats.column(pred.table, pred.column)
    if col_stats is None:
        if pred.is_range:
            magic = MAGIC_RANGE_SELECTIVITY
        elif pred.op == "in":
            magic = MAGIC_EQUALITY_SELECTIVITY * len(pred.value)
        else:
            magic = MAGIC_EQUALITY_SELECTIVITY
        return _clamp(magic)
    if pred.op == "=":
        return _clamp(col_stats.equality_selectivity(pred.value))
    if pred.op == "in":
        total = sum(col_stats.equality_selectivity(v) for v in pred.value)
        return _clamp(total)
    return _clamp(col_stats.range_selectivity(pred.op, pred.value))


def estimate_join(pred: JoinPredicate, stats: Optional[DatabaseStatistics]) -> float:
    """Estimate an equi-join selectivity as ``1 / max(ndv_left, ndv_right)``.

    This is the textbook (and PostgreSQL) formula; it is exact for clean
    PK-FK joins where the whole PK side participates, and wrong otherwise —
    which is why join selectivities dominate the paper's error dimensions.
    """
    left_stats = None if stats is None else stats.column(pred.left_table, pred.left_column)
    right_stats = None if stats is None else stats.column(pred.right_table, pred.right_column)
    ndvs = []
    if left_stats is not None:
        ndvs.append(max(1, left_stats.n_distinct))
    if right_stats is not None:
        ndvs.append(max(1, right_stats.n_distinct))
    if not ndvs:
        return _clamp(MAGIC_EQUALITY_SELECTIVITY)
    return _clamp(1.0 / max(ndvs))


def estimate_selectivities(
    query: Query, stats: Optional[DatabaseStatistics]
) -> SelectivityAssignment:
    """Full estimated assignment for a query (the NAT world view).

    Conjunctions are combined downstream under AVI (attribute-value
    independence) simply because each pid is estimated independently here.
    """
    assignment: SelectivityAssignment = {}
    for sel in query.selections:
        assignment[sel.pid] = estimate_selection(sel, stats)
    for join in query.joins:
        assignment[join.pid] = estimate_join(join, stats)
    return assignment


def actual_selectivities(query: Query, database: Database) -> SelectivityAssignment:
    """Ground-truth assignment measured directly on the data."""
    assignment: SelectivityAssignment = {}
    for sel in query.selections:
        assignment[sel.pid] = _clamp(
            database.actual_selection_selectivity(sel.table, sel.column, sel.op, sel.value)
        )
    for join in query.joins:
        assignment[join.pid] = _clamp(
            database.actual_join_selectivity(
                join.left_table, join.left_column, join.right_table, join.right_column
            )
        )
    return assignment


def inject(
    base: Mapping[str, float], overrides: Mapping[str, float]
) -> SelectivityAssignment:
    """Overlay injected selectivities on a base assignment.

    Raises if an override names a pid absent from the base assignment —
    injections must target real predicates of the query.
    """
    merged: SelectivityAssignment = dict(base)
    for pid, value in overrides.items():
        if pid not in merged:
            raise QueryError(f"cannot inject unknown predicate {pid!r}")
        merged[pid] = _clamp(value)
    return merged
