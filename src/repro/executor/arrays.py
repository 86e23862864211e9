"""Vectorized array helpers for the execution engine.

Batches are dictionaries mapping *qualified* column names
(``table.column``) to equal-length numpy arrays.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datagen.database import compare
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


def apply_selections(batch: Batch, preds: Sequence[SelectionPredicate]) -> Batch:
    if not preds or not batch_length(batch):
        return batch
    mask = np.ones(batch_length(batch), dtype=bool)
    for pred in preds:
        mask &= selection_mask(batch, pred)
    if mask.all():
        return batch
    return {name: array[mask] for name, array in batch.items()}


def join_indices(
    probe_keys: np.ndarray,
    build_keys_sorted: np.ndarray,
    build_order: np.ndarray,
    unique: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """All (probe_idx, build_idx) equi-join matches, ordered by probe row
    and, within one probe row, by position in the sorted build side.

    ``build_keys_sorted`` must be ``build_keys[build_order]``; the row
    ids in ``build_order`` may be narrower than the platform index type
    and come back widened, ready to gather many columns with.  With
    ``unique`` (no repeated build key — every FK→PK join) one binary
    search finds each probe key's only candidate; otherwise two passes
    bracket its run of duplicates and the runs are expanded, so
    many-to-many joins come out right.  Both return the same pairs.
    """
    if unique:
        if not build_keys_sorted.size:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        pos = np.searchsorted(build_keys_sorted, probe_keys, side="left")
        # A probe key above the build maximum lands one past the end.
        np.minimum(pos, build_keys_sorted.size - 1, out=pos)
        probe_idx = np.flatnonzero(build_keys_sorted[pos] == probe_keys)
        return probe_idx, build_order[pos[probe_idx]].astype(np.intp, copy=False)
    lo = np.searchsorted(build_keys_sorted, probe_keys, side="left")
    hi = np.searchsorted(build_keys_sorted, probe_keys, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    probe_idx = np.repeat(np.arange(probe_keys.size), counts)
    # Per-match offsets into each probe key's sorted range, fully vectorized:
    # within a run of matches for one probe key, offsets count 0,1,2,...
    ends = np.cumsum(counts)
    starts = ends - counts
    offsets = np.arange(total) - np.repeat(starts, counts)
    build_pos = np.repeat(lo, counts) + offsets
    return probe_idx, build_order[build_pos].astype(np.intp, copy=False)


def group_counts(
    columns: Sequence[np.ndarray], weights: Optional[np.ndarray] = None
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Distinct rows of ``columns`` in lexicographic order, with how many
    input rows (or how much of ``weights``) each one holds.

    Each column is factorised on its own (a 1-D sort) and folded into one
    mixed-radix integer code per row, earlier columns more significant,
    so code order is row order.  Codes are renumbered densely after each
    fold, which keeps them below ``rows ** 2`` whatever the column count.
    """
    distinct, codes = np.unique(columns[0], return_inverse=True)
    for column in columns[1:]:
        radix, digit = np.unique(column, return_inverse=True)
        distinct, codes = np.unique(codes * radix.size + digit, return_inverse=True)
    counts = np.bincount(codes, weights=weights, minlength=distinct.size)
    member = np.empty(distinct.size, dtype=np.intp)
    member[codes] = np.arange(codes.size)  # any one row of each group
    return [column[member] for column in columns], counts.astype(np.int64)


def merge_batches(left: Batch, left_idx: np.ndarray, right: Batch, right_idx: np.ndarray) -> Batch:
    """Form the joined batch from matched index pairs."""
    out: Batch = {}
    for name, array in left.items():
        out[name] = array[left_idx]
    for name, array in right.items():
        if name in out:
            raise ExecutionError(f"column collision on join output: {name}")
        out[name] = array[right_idx]
    return out
