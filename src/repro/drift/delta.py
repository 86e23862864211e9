"""Statistics deltas: what actually moved between two world views.

A statistics refresh replaces the optimizer's entire world view, but in
steady state most of it is unchanged — ANALYZE touched one table, one
column's histogram shifted, one PK grew.  :func:`statistics_delta`
compares two :class:`~repro.catalog.statistics.DatabaseStatistics`
field-by-field and reports the drift as a :class:`StatisticsDelta`;
:meth:`StatisticsDelta.moved_pids` maps the drifted columns onto the
predicates of a concrete query — the account ``repro refresh`` prints
before the carry-over (:mod:`repro.drift.refresh`) decides, from the
base assignments themselves, whether the artifact carries over.

The mapping mirrors the estimator (:mod:`repro.optimizer.selectivity`):

* a *selection* predicate's estimate depends only on its column's
  statistics (histogram, MCVs, bounds), so it moves iff that column
  drifted in any field;
* a *join* predicate's estimate is ``1 / max(ndv_left, ndv_right)``, so
  it moves only when a joined column's **distinct count** changed —
  value-bound or histogram drift on a join column is invisible to it.

:func:`perturb_statistics` is the matching drift injector: a deep copy
of a statistics object with one table (or one column) shifted, used by
the CLI, the ledger, and the equivalence tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from ..catalog.statistics import (
    ColumnStatistics,
    DatabaseStatistics,
    TableStatistics,
)
from ..query.predicates import JoinPredicate, SelectionPredicate
from ..query.query import Query

__all__ = [
    "StatisticsDelta",
    "TableDrift",
    "perturb_statistics",
    "statistics_delta",
]


@dataclass(frozen=True)
class TableDrift:
    """Per-table drift record.

    ``columns`` lists every column whose statistics changed in any field
    (including columns present on only one side); ``ndv_columns`` is the
    subset whose distinct count changed — the only kind of column drift a
    join estimate can observe.
    """

    table: str
    columns: Tuple[str, ...] = ()
    ndv_columns: Tuple[str, ...] = ()
    row_count_changed: bool = False
    added: bool = False
    removed: bool = False

    @property
    def is_empty(self) -> bool:
        return not (
            self.columns
            or self.row_count_changed
            or self.added
            or self.removed
        )


@dataclass(frozen=True)
class StatisticsDelta:
    """Field-level difference between two statistics world views."""

    tables: Tuple[TableDrift, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.drifted_tables

    @property
    def drifted_tables(self) -> List[str]:
        return [t.table for t in self.tables if not t.is_empty]

    def _drift(self, table: str) -> Optional[TableDrift]:
        for entry in self.tables:
            if entry.table == table:
                return entry
        return None

    def moved_pids(self, query: Query) -> List[str]:
        """Predicates of ``query`` whose selectivity estimate can have
        moved under this delta (see the module docstring for the
        estimator mapping)."""
        moved: List[str] = []
        for pid in query.predicate_ids:
            pred = query.predicate(pid)
            if isinstance(pred, SelectionPredicate):
                drift = self._drift(pred.table)
                if drift is not None and (
                    pred.column in drift.columns or drift.added or drift.removed
                ):
                    moved.append(pid)
            elif isinstance(pred, JoinPredicate):
                for table, column in (
                    (pred.left_table, pred.left_column),
                    (pred.right_table, pred.right_column),
                ):
                    drift = self._drift(table)
                    if drift is not None and (
                        column in drift.ndv_columns or drift.added or drift.removed
                    ):
                        moved.append(pid)
                        break
        return moved

    def describe(self) -> str:
        if self.is_empty:
            return "statistics delta: empty (world views identical)"
        lines = ["statistics delta:"]
        for entry in self.tables:
            if entry.is_empty:
                continue
            flags = []
            if entry.added:
                flags.append("added")
            if entry.removed:
                flags.append("removed")
            if entry.row_count_changed:
                flags.append("rows")
            detail = ",".join(flags + list(entry.columns))
            lines.append(f"  {entry.table}: {detail}")
        return "\n".join(lines)


def _column_drift(
    old: Optional[TableStatistics], new: Optional[TableStatistics]
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Changed columns and the ndv-changed subset between two tables."""
    old_cols = set(old.column_names) if old is not None else set()
    new_cols = set(new.column_names) if new is not None else set()
    changed: List[str] = []
    ndv_changed: List[str] = []
    for name in sorted(old_cols | new_cols):
        a = old.column(name) if old is not None else None
        b = new.column(name) if new is not None else None
        if a == b:
            continue
        changed.append(name)
        if a is None or b is None or a.n_distinct != b.n_distinct:
            ndv_changed.append(name)
    return tuple(changed), tuple(ndv_changed)


def statistics_delta(
    old: Optional[DatabaseStatistics], new: Optional[DatabaseStatistics]
) -> StatisticsDelta:
    """Field-by-field comparison of two statistics objects.

    ``None`` on either side (the no-statistics/ETL world view) is treated
    as an empty statistics object: every table on the other side reports
    as added/removed.
    """
    old_names = set(old.table_names) if old is not None else set()
    new_names = set(new.table_names) if new is not None else set()
    entries: List[TableDrift] = []
    for name in sorted(old_names | new_names):
        old_table = old.table(name) if old is not None else None
        new_table = new.table(name) if new is not None else None
        columns, ndv_columns = _column_drift(old_table, new_table)
        entries.append(
            TableDrift(
                table=name,
                columns=columns,
                ndv_columns=ndv_columns,
                row_count_changed=(
                    (old_table.row_count if old_table is not None else None)
                    != (new_table.row_count if new_table is not None else None)
                ),
                added=old_table is None and new_table is not None,
                removed=old_table is not None and new_table is None,
            )
        )
    return StatisticsDelta(tables=tuple(entries))


def _scaled_column(
    stats: ColumnStatistics, scale: float, distinct_scale: Optional[float]
) -> ColumnStatistics:
    n_distinct = stats.n_distinct
    if distinct_scale is not None:
        n_distinct = max(1, int(round(stats.n_distinct * distinct_scale)))
    return ColumnStatistics(
        min_value=stats.min_value * scale,
        max_value=stats.max_value * scale,
        n_distinct=n_distinct,
        null_fraction=stats.null_fraction,
        histogram_bounds=(
            None
            if stats.histogram_bounds is None
            else [b * scale for b in stats.histogram_bounds]
        ),
        mcv_values=[v * scale for v in stats.mcv_values],
        mcv_fractions=list(stats.mcv_fractions),
    )


def perturb_statistics(
    statistics: DatabaseStatistics,
    table: str,
    column: Optional[str] = None,
    *,
    scale: float = 1.1,
    distinct_scale: Optional[float] = None,
    row_scale: Optional[float] = None,
) -> DatabaseStatistics:
    """A deep copy of ``statistics`` with localized drift injected.

    Every value statistic (min/max, histogram bounds, MCV values) of the
    targeted ``table.column`` — or of every column of ``table`` when
    ``column`` is None — is multiplied by ``scale``; ``distinct_scale``
    additionally scales the distinct count (the only knob a join
    estimate reacts to) and ``row_scale`` the table's row count.  All
    other tables and columns are copied unchanged, and all mutation goes
    through the statistics setters so the version token (and therefore
    the fingerprint) is bumped.
    """
    perturbed = DatabaseStatistics()
    for name in statistics.table_names:
        source = statistics.table(name)
        rows = source.row_count
        if name == table and row_scale is not None:
            rows = max(1, int(round(rows * row_scale)))
        copy = TableStatistics(name, rows)
        for col_name in source.column_names:
            col = source.column(col_name)
            if name == table and (column is None or col_name == column):
                copy.set_column(col_name, _scaled_column(col, scale, distinct_scale))
            else:
                copy.set_column(col_name, replace(col))
        perturbed.set_table(copy)
    return perturbed
