"""In-memory database: generated tables plus derived statistics.

A :class:`Database` holds one numpy array per column and can build the
optimizer-facing :class:`~repro.catalog.statistics.DatabaseStatistics`
either *exactly* (perfect statistics) or from a sample (stale/inaccurate
statistics), which is the knob that creates realistic estimation errors.
"""

from __future__ import annotations

import hashlib
import threading
import zlib
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..catalog.schema import Schema
from ..catalog.statistics import (
    ColumnStatistics,
    DatabaseStatistics,
    TableStatistics,
)
from ..exceptions import CatalogError
from .generators import ColumnGenerator, CorrelatedFloat

#: Generator spec type: table -> column -> generator.
GeneratorSpec = Mapping[str, Mapping[str, ColumnGenerator]]


def _column_rng(root: np.random.SeedSequence, table: str, column: str) -> np.random.Generator:
    """Independent RNG stream per (table, column), stable across processes.

    Uses CRC32 (not Python's salted ``hash``) so the same seed always
    generates byte-identical databases — required for the repeatability
    guarantees this library makes."""
    key = zlib.crc32(f"{table}.{column}".encode("utf-8"))
    return np.random.default_rng(
        np.random.SeedSequence(entropy=root.entropy, spawn_key=(key,))
    )


def compare(values: np.ndarray, op: str, value) -> np.ndarray:
    """Boolean mask of ``values <op> value`` — the one definition of the
    selection operators, shared by scans, probes and ground truth."""
    if op == "=":
        return values == value
    if op == "<":
        return values < value
    if op == "<=":
        return values <= value
    if op == ">":
        return values > value
    if op == ">=":
        return values >= value
    if op == "in":
        return np.isin(values, np.asarray(value))
    raise CatalogError(f"unsupported operator {op!r}")


#: One selection on a table's column: ``(column, op, value)``.
Condition = Tuple[str, str, object]


class RowCount(NamedTuple):
    """An exact count taken through the indexes, and the work it took:
    index ranges located (a B-tree descent each) and rows fetched to
    test co-located conditions."""

    rows: int
    descents: int
    fetched: int


#: Keys are addressed, not searched, when they cast exactly to int64 and
#: their span ``max - min + 1`` is at most this many table slots per key,
#: counting at least 512 keys (so 4,096 slots for any small build).  A
#: dense build is a counting pass over the span plus a radix sort, and a
#: probe one gather per key; a sparse build is a comparison sort and a
#: probe two binary searches.  Measured break-even for one build plus one
#: probe batch (DESIGN decision 13): ≈ 16–38 slots per key for
#: 8,192–65,536 keys, ≥ 46,000 slots for builds of ≤ 128 keys under a
#: 4,096-key probe.
DENSE_SLOTS_PER_KEY = 8


def _exact_in_int64(dtype: np.dtype) -> bool:
    """Whether every value of ``dtype`` is an int64 (``np.can_cast``'s
    answer, without its call overhead on every build and probe)."""
    return dtype.kind == "i" or dtype.kind in "bu" and dtype.itemsize < 8


def _stable_order(offsets: np.ndarray, span: int) -> np.ndarray:
    """``np.argsort(offsets, kind="stable")`` for offsets in ``[0, span)``,
    as an LSD radix sort over 16-bit digits (numpy sorts integers of 16
    bits or fewer by radix, not by comparison)."""
    order = np.argsort(offsets.astype(np.uint16), kind="stable")
    if span > 1 << 16:
        high = (offsets >> 16).astype(np.min_scalar_type(span >> 16))
        order = order[np.argsort(high[order], kind="stable")]
    return order


class ColumnIndex(NamedTuple):
    """An access path over one key array (the simulated B-tree).

    ``values`` is ``keys[order]`` under a stable sort, so equal keys keep
    their row order.  Dense integer keys (:data:`DENSE_SLOTS_PER_KEY`)
    also carry a direct-address table: the keys equal to ``low + k`` sit
    at ``order[starts[k] : starts[k] + counts[k]]``, and slot ``span``
    is an empty one every out-of-range probe key lands on.  Other keys
    have ``starts = counts = None`` and are binary-searched in
    ``values``.  The arrays are read-only: an index over a base column
    is shared by every engine over the same :class:`Database`, and lives
    as long as it does — so ``order`` is held as int32 whenever the row
    count allows.
    """

    values: np.ndarray
    order: np.ndarray
    low: int
    starts: Optional[np.ndarray]
    counts: Optional[np.ndarray]

    @classmethod
    def build(cls, keys: np.ndarray) -> "ColumnIndex":
        width = np.int32 if keys.size < 1 << 31 else np.intp
        low = span = 0
        if keys.size and _exact_in_int64(keys.dtype):
            low = int(np.minimum.reduce(keys))
            span = int(np.maximum.reduce(keys)) - low + 1
        if not 0 < span <= DENSE_SLOTS_PER_KEY * max(keys.size, 512):
            order = np.argsort(keys, kind="stable").astype(width)
            return cls._frozen(keys[order], order, low, None, None)
        # No comparison sort: a counting pass over the offsets places each
        # key's run, and a radix sort of the offsets orders the rows.
        offsets = keys.astype(np.int64, copy=False) - low
        counts = np.bincount(offsets, minlength=span + 1)
        order = _stable_order(offsets, span).astype(width)
        return cls._frozen(keys[order], order, low, counts.cumsum() - counts, counts)

    @classmethod
    def _frozen(cls, values, order, low, starts, counts) -> "ColumnIndex":
        for array in (values, order, starts, counts):
            if array is not None:
                array.setflags(write=False)
        return cls(values, order, low, starts, counts)

    def addresses(self, keys: np.ndarray) -> bool:
        """Whether probing with ``keys`` is a gather from the table
        rather than a binary search of ``values``."""
        return self.starts is not None and _exact_in_int64(keys.dtype)

    def locate(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per probe key, its first position in ``values`` / ``order`` and
        how many entries equal it."""
        if self.addresses(keys):
            # Offsets wrap modulo 2**64, so below-range keys read as huge
            # unsigned values and every miss clamps to the empty slot.
            offsets = (keys.astype(np.int64, copy=False) - self.low).view(np.uint64)
            slots = np.minimum(offsets, self.counts.size - 1).view(np.int64)
            return self.starts[slots], self.counts[slots]
        first = self.values.searchsorted(keys, "left")
        return first, self.values.searchsorted(keys, "right") - first

    def spans(self, op: str, value) -> List[Tuple[int, int]]:
        """Disjoint entry ranges ``[lo, hi)`` holding the keys that
        satisfy ``key <op> value``: one range, from one binary search for
        a one-sided comparison and two for ``=``; one range (two searches)
        per distinct listed value for ``in``."""
        search = self.values.searchsorted
        if op == "=":
            return [(int(search(value, "left")), int(search(value, "right")))]
        if op in ("<", "<="):
            return [(0, int(search(value, "left" if op == "<" else "right")))]
        if op in (">", ">="):
            side = "right" if op == ">" else "left"
            return [(int(search(value, side)), self.values.size)]
        if op == "in":
            listed = np.unique(np.asarray(value))
            return list(zip(search(listed, "left").tolist(), search(listed, "right").tolist()))
        raise CatalogError(f"unsupported operator {op!r}")


class Database:
    """Generated relational data for a :class:`~repro.catalog.schema.Schema`."""

    def __init__(self, schema: Schema, tables: Dict[str, Dict[str, np.ndarray]]):
        self.schema = schema
        self._tables = tables
        self._fingerprint: Optional[str] = None
        self._indexes: Dict[Tuple[str, str], ColumnIndex] = {}
        self._join_selectivities: Dict[Tuple[str, str, str, str], float] = {}
        self._row_counts: Dict[Tuple[str, Tuple[Condition, ...]], RowCount] = {}
        self._index_lock = threading.Lock()
        #: Indexes built over this object's lifetime (telemetry / tests).
        self.index_builds = 0
        for name, cols in tables.items():
            table = schema.table(name)
            lengths = {arr.size for arr in cols.values()}
            if len(lengths) > 1:
                raise CatalogError(f"ragged columns in generated table {name!r}")
            if lengths and lengths.pop() != table.row_count:
                raise CatalogError(
                    f"generated table {name!r} does not match catalog row count"
                )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def generate(schema: Schema, spec: GeneratorSpec, seed: int = 42) -> "Database":
        """Generate all tables of ``schema`` from the generator ``spec``.

        Generation is deterministic in ``seed``; each (table, column) pair
        gets an independent child RNG stream so adding a column does not
        reshuffle the others.
        """
        root = np.random.SeedSequence(seed)
        tables: Dict[str, Dict[str, np.ndarray]] = {}
        for tname in schema.table_names:
            table = schema.table(tname)
            col_spec = spec.get(tname)
            if col_spec is None:
                raise CatalogError(f"no generator spec for table {tname!r}")
            arrays: Dict[str, np.ndarray] = {}
            deferred = []
            for col in table.columns:
                gen = col_spec.get(col.name)
                if gen is None:
                    raise CatalogError(
                        f"no generator for column {tname}.{col.name}"
                    )
                if isinstance(gen, CorrelatedFloat):
                    deferred.append((col.name, gen))
                    continue
                rng = _column_rng(root, tname, col.name)
                arrays[col.name] = gen.generate(table.row_count, rng)
            for col_name, gen in deferred:
                if gen.base_column not in arrays:
                    raise CatalogError(
                        f"correlated column {tname}.{col_name} references missing "
                        f"base column {gen.base_column!r}"
                    )
                rng = _column_rng(root, tname, col_name)
                arrays[col_name] = gen.generate_correlated(
                    arrays[gen.base_column], table.row_count, rng
                )
            tables[tname] = arrays
        return Database(schema, tables)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def table(self, name: str) -> Dict[str, np.ndarray]:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"database has no table {name!r}") from None

    def column(self, table: str, column: str) -> np.ndarray:
        cols = self.table(table)
        try:
            return cols[column]
        except KeyError:
            raise CatalogError(f"table {table!r} has no column {column!r}") from None

    def row_count(self, table: str) -> int:
        return self.schema.table(table).row_count

    def fingerprint(self) -> str:
        """Content digest of every table's data, cached after first use.

        Distinguishes regenerated/different datasets so caches keyed on
        "which data am I looking at" (e.g. a bouquet's measured subtree
        rows) cannot serve stale answers.  If arrays are
        mutated in place, call :meth:`invalidate_fingerprint`.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            for tname in sorted(self._tables):
                digest.update(tname.encode("utf-8"))
                cols = self._tables[tname]
                for cname in sorted(cols):
                    digest.update(cname.encode("utf-8"))
                    arr = np.ascontiguousarray(cols[cname])
                    digest.update(str(arr.dtype).encode("utf-8"))
                    digest.update(arr.tobytes())
            self._fingerprint = digest.hexdigest()[:20]
        return self._fingerprint

    def invalidate_fingerprint(self) -> None:
        """Drop everything derived from the data (the cached fingerprint,
        every index, every measured join selectivity and every row count)
        after in-place data mutation."""
        with self._index_lock:
            self._fingerprint = None
            self._indexes = {}
            self._join_selectivities = {}
            self._row_counts = {}

    def index(self, table: str, column: str) -> ColumnIndex:
        """The index over ``table.column``, built on first use.

        Built once per dataset however many engines and threads ask; it
        lives until :meth:`invalidate_fingerprint` and is not pickled.
        """
        key = (table, column)
        found = self._indexes.get(key)
        if found is None:
            with self._index_lock:
                found = self._indexes.get(key)
                if found is None:
                    found = ColumnIndex.build(self.column(table, column))
                    self._indexes[key] = found
                    self.index_builds += 1
        return found

    def count_rows(self, table: str, conditions: Sequence[Condition]) -> RowCount:
        """Rows of ``table`` satisfying every condition, counted exactly.

        A measurement, not an estimate (Shin et al., PAPERS.md): a lone
        condition is the width of its index range; co-located conditions
        are tested only on the rows of the narrowest range — never on a
        whole column.  Taken once per ``(table, conditions)`` content: the
        count lives until :meth:`invalidate_fingerprint` and is not
        pickled.  A count begun before an invalidation lands in the memo
        the invalidation replaced, never in the new one.
        """
        key = (table, tuple((c, op, tuple(v) if op == "in" else v) for c, op, v in conditions))
        counts = self._row_counts
        found = counts.get(key)
        if found is None:
            found = counts[key] = self._count_rows(table, conditions)
        return found

    def _count_rows(self, table: str, conditions: Sequence[Condition]) -> RowCount:
        """:meth:`count_rows` without the memo: the index work itself."""
        if not conditions:
            return RowCount(self.row_count(table), 0, 0)
        indexes = [self.index(table, column) for column, _, _ in conditions]
        spans = [
            index.spans(op, value)
            for index, (_, op, value) in zip(indexes, conditions)
        ]
        widths = [sum(hi - lo for lo, hi in ranges) for ranges in spans]
        descents = sum(len(ranges) for ranges in spans)
        if len(conditions) == 1:
            return RowCount(widths[0], descents, 0)
        narrowest = widths.index(min(widths))
        order = indexes[narrowest].order
        row_ids = np.concatenate([order[lo:hi] for lo, hi in spans[narrowest]])
        mask = np.ones(row_ids.size, dtype=bool)
        for position, (column, op, value) in enumerate(conditions):
            if position != narrowest:
                mask &= compare(self.column(table, column)[row_ids], op, value)
        return RowCount(int(mask.sum()), descents, int(row_ids.size))

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_indexes"], state["_index_lock"], state["index_builds"]
        del state["_join_selectivities"], state["_row_counts"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._indexes = {}
        self._join_selectivities = {}
        self._row_counts = {}
        self._index_lock = threading.Lock()
        self.index_builds = 0

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def build_statistics(
        self,
        sample_size: Optional[int] = None,
        buckets: int = 100,
        seed: int = 0,
    ) -> DatabaseStatistics:
        """Build optimizer statistics over every column.

        ``sample_size=None`` gives perfect statistics; a finite sample
        produces the realistic, error-prone variety.
        """
        stats = DatabaseStatistics()
        for tname in self.schema.table_names:
            table = self.schema.table(tname)
            tstats = TableStatistics(tname, table.row_count)
            for col in table.columns:
                arr = self.column(tname, col.name)
                tstats.set_column(
                    col.name,
                    ColumnStatistics.from_array(
                        arr, buckets=buckets, sample_size=sample_size, seed=seed
                    ),
                )
            stats.set_table(tstats)
        return stats

    def actual_selection_selectivity(self, table: str, column: str, op: str, value) -> float:
        """Ground-truth selectivity of ``table.column <op> value``."""
        return float(np.mean(compare(self.column(table, column), op, value)))

    def actual_join_selectivity(
        self, left_table: str, left_column: str, right_table: str, right_column: str
    ) -> float:
        """Ground-truth join selectivity |L ⋈ R| / (|L| * |R|), measured
        once per column pair: it lives until :meth:`invalidate_fingerprint`
        (a statistics refresh cannot change it) and is not pickled."""
        key = (left_table, left_column, right_table, right_column)
        with self._index_lock:
            found = self._join_selectivities.get(key)
            if found is None:
                left = self.column(left_table, left_column)
                right = self.column(right_table, right_column)
                values, left_counts = np.unique(left, return_counts=True)
                rvalues, right_counts = np.unique(right, return_counts=True)
                _common, li, ri = np.intersect1d(values, rvalues, return_indices=True)
                matches = np.dot(left_counts[li].astype(float), right_counts[ri].astype(float))
                found = self._join_selectivities[key] = float(matches) / (left.size * right.size)
        return found
