"""Localized statistics drift: :func:`perturb_statistics`.

A statistics refresh replaces the optimizer's entire world view, but in
steady state most of it is unchanged — ANALYZE touched one table, one
column's histogram shifted, one PK grew.  :func:`perturb_statistics`
injects exactly that: a deep copy of a statistics object with one table
(or one column) shifted, used by ``repro refresh``, the ledger and the
tests.  What such a refresh moves for a compiled query is decided by the
carry-over itself (:mod:`repro.drift.refresh`), from the base
assignments it would compile.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..catalog.statistics import (
    ColumnStatistics,
    DatabaseStatistics,
    TableStatistics,
)

__all__ = ["perturb_statistics"]


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
