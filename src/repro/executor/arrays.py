"""Vectorized array helpers for the execution engine.

Batches are dictionaries mapping *qualified* column names
(``table.column``) to equal-length numpy arrays.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..datagen.database import DENSE_SLOTS_PER_KEY, ColumnIndex, _exact_in_int64, compare
from ..exceptions import ExecutionError
from ..query.predicates import SelectionPredicate

Batch = Dict[str, np.ndarray]


def qualify(table: str, column: str) -> str:
    return f"{table}.{column}"


def batch_length(batch: Batch) -> int:
    if not batch:
        return 0
    return len(next(iter(batch.values())))


def empty_like(batch: Batch) -> Batch:
    return {name: array[:0] for name, array in batch.items()}


def take(batch: Batch, indices: np.ndarray) -> Batch:
    return {name: array[indices] for name, array in batch.items()}


def concat(batches: Sequence[Batch]) -> Batch:
    non_empty = [b for b in batches if batch_length(b)]
    if not non_empty:
        return {} if not batches else empty_like(batches[0])
    keys = non_empty[0].keys()
    return {key: np.concatenate([b[key] for b in non_empty]) for key in keys}


def selection_mask(batch: Batch, pred: SelectionPredicate) -> np.ndarray:
    """Boolean mask for a selection predicate over a batch."""
    column = batch.get(qualify(pred.table, pred.column))
    if column is None:
        raise ExecutionError(
            f"batch lacks column {pred.table}.{pred.column} for predicate {pred}"
        )
    return compare(column, pred.op, pred.value)


def filter_rows(batch: Batch, mask: np.ndarray) -> Batch:
    """The rows of ``batch`` where ``mask`` holds (the batch itself when
    every row does): the mask becomes row ids once, and each column is a
    gather by them — one pass over the mask instead of one per column."""
    ids = mask.nonzero()[0]
    if ids.size == mask.size:
        return batch
    return take(batch, ids)


def apply_selections(batch: Batch, preds: Sequence[SelectionPredicate]) -> Batch:
    if not preds or not batch_length(batch):
        return batch
    mask = selection_mask(batch, preds[0])
    for pred in preds[1:]:
        mask &= selection_mask(batch, pred)
    return filter_rows(batch, mask)


#: A probe index: row ids, or ``slice(None)`` — every probe row, in order.
ProbeIndex = Union[np.ndarray, slice]


def join_indices(probe_keys: np.ndarray, index: ColumnIndex) -> Tuple[ProbeIndex, np.ndarray]:
    """All (probe_idx, build_idx) equi-join matches of ``probe_keys``
    against the keys ``index`` was built over, ordered by probe row and,
    within one probe row, by the build side's stable sorted order.

    The index finds each probe key's run of equal build keys — a gather
    from its direct-address table, or two binary searches — and the runs
    are expanded here.  Build row ids come back as the platform index
    type, ready to gather many columns with.  When every probe row has
    exactly one partner (an FK→PK join over present keys) the probe side
    passes through unchanged: ``probe_idx`` is ``slice(None)``.
    """
    first, count = index.locate(probe_keys)
    total = int(count.sum())
    if 0 < total == count.size and count.all():
        return slice(None), index.order[first].astype(np.intp, copy=False)
    probe_idx = (count > 0).nonzero()[0]
    first = first[probe_idx]
    if total > probe_idx.size:
        # Some probe key has several partners: within its run of matches
        # the positions count first, first + 1, ...
        count = count[probe_idx]
        ends = np.cumsum(count)
        first = np.arange(total) + np.repeat(first - (ends - count), count)
        probe_idx = np.repeat(probe_idx, count)
    return probe_idx, index.order[first].astype(np.intp, copy=False)


def group_radices(columns: Sequence[np.ndarray]) -> Optional[List[Tuple[int, int]]]:
    """Each key column's ``(low, span)`` when the rows group by address —
    :meth:`ColumnIndex.build`'s rule over the code space ``prod(span)`` —
    else ``None``."""
    rows = columns[0].size
    if not rows or not all(_exact_in_int64(column.dtype) for column in columns):
        return None
    lows = [int(np.minimum.reduce(column)) for column in columns]
    spans = [int(np.maximum.reduce(column)) - low + 1 for column, low in zip(columns, lows)]
    if math.prod(spans) > DENSE_SLOTS_PER_KEY * max(rows, 512):
        return None
    return list(zip(lows, spans))


def group_counts(columns: Sequence[np.ndarray]) -> Tuple[List[np.ndarray], np.ndarray]:
    """Distinct rows of ``columns`` in lexicographic order, each key in
    its column's dtype, with how many input rows each one holds.

    Each row becomes one mixed-radix code, earlier columns more
    significant, so code order is row order: by address for small-span
    integer keys (:func:`group_radices`), whose ``bincount`` slots decode
    back into keys; otherwise from a 1-D sort of each column, the codes
    renumbered densely after each fold so they stay below ``rows ** 2``.
    """
    radices = group_radices(columns)
    if radices is not None:
        codes = np.zeros(columns[0].size, dtype=np.int64)
        for column, (low, span) in zip(columns, radices):
            codes *= span
            codes += column  # may wrap past int64; the sum ends in [0, slots)
            codes -= low
        counts = np.bincount(codes)
        slots = counts.nonzero()[0]
        digits = np.unravel_index(slots, [span for _, span in radices])
        keys = [(d + low).astype(c.dtype) for d, c, (low, _) in zip(digits, columns, radices)]
        return keys, counts[slots].astype(np.int64)
    distinct, codes = np.unique(columns[0], return_inverse=True)
    for column in columns[1:]:
        radix, digit = np.unique(column, return_inverse=True)
        distinct, codes = np.unique(codes * radix.size + digit, return_inverse=True)
    counts = np.bincount(codes, minlength=distinct.size)
    member = np.empty(distinct.size, dtype=np.intp)
    member[codes] = np.arange(codes.size)  # any one row of each group
    return [column[member] for column in columns], counts.astype(np.int64)


def merge_batches(left: Batch, left_idx: ProbeIndex, right: Batch, right_idx: np.ndarray) -> Batch:
    """Form the joined batch from matched index pairs; a pass-through
    ``left_idx`` (``slice(None)``) keeps the left columns as they are."""
    out: Batch = dict(left) if isinstance(left_idx, slice) else take(left, left_idx)
    for name, array in right.items():
        if name in out:
            raise ExecutionError(f"column collision on join output: {name}")
        out[name] = array[right_idx]
    return out
