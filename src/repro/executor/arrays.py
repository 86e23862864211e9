"""Vectorized array helpers for the execution engine.

Batches are dictionaries mapping *qualified* column names
(``table.column``) to equal-length numpy arrays.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datagen.database import ColumnIndex, compare
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


def join_indices(probe_keys: np.ndarray, index: ColumnIndex) -> Tuple[np.ndarray, np.ndarray]:
    """All (probe_idx, build_idx) equi-join matches of ``probe_keys``
    against the keys ``index`` was built over, ordered by probe row and,
    within one probe row, by the build side's stable sorted order.

    The index finds each probe key's run of equal build keys — a gather
    from its direct-address table, or two binary searches — and the runs
    are expanded here.  Build row ids come back as the platform index
    type, ready to gather many columns with.
    """
    first, count = index.locate(probe_keys)
    probe_idx = (count > 0).nonzero()[0]
    total = int(count.sum())
    first = first[probe_idx]
    if total > probe_idx.size:
        # Some probe key has several partners: within its run of matches
        # the positions count first, first + 1, ...
        count = count[probe_idx]
        ends = np.cumsum(count)
        first = np.arange(total) + np.repeat(first - (ends - count), count)
        probe_idx = np.repeat(probe_idx, count)
    return probe_idx, index.order[first].astype(np.intp, copy=False)


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
