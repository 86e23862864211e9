"""Column and table statistics: the optimizer's (fallible) view of the data.

Statistics are the root cause of the estimation errors that the plan-bouquet
technique side-steps.  We model the standard toolkit of a System-R style
optimizer:

* per-column min/max and distinct counts,
* equi-depth histograms for range selectivity,
* most-common-value (MCV) lists for equality selectivity,

and, crucially, the statistics can be *stale*: built from a sample or an
earlier state of the data, so estimated selectivities diverge from actual
ones — exactly the regime the paper targets.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..exceptions import CatalogError

#: Default number of equi-depth histogram buckets (PostgreSQL's default).
DEFAULT_HISTOGRAM_BUCKETS = 100

#: MCV list length.
MCV_ENTRIES = 10

#: The Selinger "magic number" used when no statistics are available for an
#: equality predicate (1/10 per the classic System-R paper, cited in §1).
MAGIC_EQUALITY_SELECTIVITY = 0.1

#: Magic number for range predicates without statistics (PostgreSQL uses 1/3).
MAGIC_RANGE_SELECTIVITY = 1.0 / 3.0


@dataclass
class ColumnStatistics:
    """Summary statistics for one column.

    ``histogram_bounds`` are equi-depth bucket boundaries: ``len(bounds) - 1``
    buckets each holding an equal fraction of the (non-MCV) rows.
    """

    min_value: float
    max_value: float
    n_distinct: int
    null_fraction: float = 0.0
    histogram_bounds: Optional[List[float]] = None
    mcv_values: List[float] = field(default_factory=list)
    mcv_fractions: List[float] = field(default_factory=list)

    @staticmethod
    def from_array(
        values: np.ndarray,
        buckets: int = DEFAULT_HISTOGRAM_BUCKETS,
        sample_size: Optional[int] = None,
        seed: int = 0,
    ) -> "ColumnStatistics":
        """Build statistics from a data array, optionally from a sample.

        Sampling (``sample_size``) is how staleness/inaccuracy enters: stats
        built from a small sample mis-estimate skewed distributions.
        """
        if values.size == 0:
            raise CatalogError("cannot build statistics from an empty column")
        data = values
        if sample_size is not None and sample_size < data.size:
            rng = np.random.default_rng(seed)
            data = rng.choice(data, size=sample_size, replace=False)
        data = np.sort(data.astype(float))
        n = data.size

        uniques, counts = np.unique(data, return_counts=True)
        n_distinct = int(uniques.size)

        # MCV list: most frequent values and their fractions.
        mcv_values: List[float] = []
        mcv_fractions: List[float] = []
        if n_distinct > 1:
            order = np.argsort(counts)[::-1][:MCV_ENTRIES]
            for idx in order:
                frac = counts[idx] / n
                # Only keep values noticeably more common than average.
                if frac > 1.5 / n_distinct:
                    mcv_values.append(float(uniques[idx]))
                    mcv_fractions.append(float(frac))

        # Equi-depth histogram over the remaining (non-MCV) values.
        if mcv_values:
            mask = ~np.isin(data, np.array(mcv_values))
            hist_data = data[mask]
        else:
            hist_data = data
        bounds: Optional[List[float]] = None
        if hist_data.size >= 2:
            nb = min(buckets, max(1, hist_data.size - 1))
            quantiles = np.linspace(0.0, 1.0, nb + 1)
            bounds = [float(v) for v in np.quantile(hist_data, quantiles)]
        return ColumnStatistics(
            min_value=float(data[0]),
            max_value=float(data[-1]),
            n_distinct=n_distinct,
            histogram_bounds=bounds,
            mcv_values=mcv_values,
            mcv_fractions=mcv_fractions,
        )

    # ------------------------------------------------------------------
    # Selectivity estimation
    # ------------------------------------------------------------------

    def equality_selectivity(self, value: float) -> float:
        """Estimated fraction of rows with ``column = value``."""
        for mcv, frac in zip(self.mcv_values, self.mcv_fractions):
            if mcv == value:
                return frac
        remaining = max(0.0, 1.0 - sum(self.mcv_fractions))
        others = max(1, self.n_distinct - len(self.mcv_values))
        return _clamp(remaining / others)

    def range_selectivity(self, op: str, value: float) -> float:
        """Estimated fraction of rows satisfying ``column <op> value``.

        ``op`` is one of ``<``, ``<=``, ``>``, ``>=``.
        """
        below = self._fraction_below(value, inclusive=op in ("<=", ">"))
        if op in ("<", "<="):
            sel = below
        elif op in (">", ">="):
            sel = 1.0 - below
        else:
            raise CatalogError(f"unsupported range operator {op!r}")
        return _clamp(sel)

    def _fraction_below(self, value: float, inclusive: bool) -> float:
        """Fraction of rows strictly below (or below-or-equal) ``value``."""
        if value <= self.min_value:
            return 0.0 if not inclusive else self.equality_selectivity(self.min_value)
        if value >= self.max_value:
            return 1.0
        frac = 0.0
        hist_weight = max(0.0, 1.0 - sum(self.mcv_fractions))
        if self.histogram_bounds:
            bounds = self.histogram_bounds
            nb = len(bounds) - 1
            pos = bisect.bisect_right(bounds, value) - 1
            pos = min(max(pos, 0), nb - 1)
            lo, hi = bounds[pos], bounds[pos + 1]
            within = 0.0 if hi <= lo else (value - lo) / (hi - lo)
            frac += hist_weight * (pos + within) / nb
        else:
            span = self.max_value - self.min_value
            if span > 0:
                frac += hist_weight * (value - self.min_value) / span
        for mcv, mfrac in zip(self.mcv_values, self.mcv_fractions):
            if mcv < value or (inclusive and mcv == value):
                frac += mfrac
        return _clamp(frac)


def _clamp(sel: float, lo: float = 1e-9, hi: float = 1.0) -> float:
    return min(hi, max(lo, sel))


class TableStatistics:
    """Statistics for all columns of one table."""

    def __init__(self, table_name: str, row_count: int):
        self.table_name = table_name
        self.row_count = int(row_count)
        self._columns: Dict[str, ColumnStatistics] = {}
        #: The :class:`DatabaseStatistics` this table was registered in;
        #: replacing a column moves each one's version.
        self._owners: List["DatabaseStatistics"] = []

    def set_column(self, column: str, stats: ColumnStatistics):
        self._columns[column] = stats
        for owner in self._owners:
            owner._version += 1

    def column(self, column: str) -> Optional[ColumnStatistics]:
        return self._columns.get(column)

    @property
    def column_names(self) -> List[str]:
        return sorted(self._columns)


class DatabaseStatistics:
    """Statistics for a whole database; the optimizer's world view.

    Missing column statistics fall back to "magic numbers", mirroring the
    ETL-workflow scenario from the paper's introduction.
    """

    def __init__(self):
        self._tables: Dict[str, TableStatistics] = {}
        self._version = 0

    def set_table(self, stats: TableStatistics):
        self._tables[stats.table_name] = stats
        if self not in stats._owners:
            stats._owners.append(self)
        self._version += 1

    def table(self, name: str) -> Optional[TableStatistics]:
        return self._tables.get(name)

    def row_count(self, table: str) -> Optional[int]:
        stats = self._tables.get(table)
        return None if stats is None else stats.row_count

    def column(self, table: str, column: str) -> Optional[ColumnStatistics]:
        stats = self._tables.get(table)
        return None if stats is None else stats.column(column)

    @property
    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def version_token(self) -> int:
        """A version that moves whenever statistics are replaced via
        :meth:`set_table` / :meth:`TableStatistics.set_column` (a table
        moves the version of every statistics it is registered in) — so
        a memoized content fingerprint is checked by one comparison (see
        :func:`repro.serve.fingerprint.statistics_fingerprint`).  Mutating
        :class:`ColumnStatistics` fields in place bypasses it; always go
        through the setters."""
        return self._version
