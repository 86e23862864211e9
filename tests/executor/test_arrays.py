"""Unit + property tests for the vectorized executor helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import ColumnIndex
from repro.exceptions import ExecutionError
from repro.executor.arrays import (
    apply_selections,
    batch_length,
    concat,
    join_indices,
    merge_batches,
    qualify,
    selection_mask,
    take,
)
from repro.query import SelectionPredicate


def batch(**cols):
    return {name: np.asarray(values) for name, values in cols.items()}


class TestBasics:
    def test_qualify(self):
        assert qualify("part", "p_size") == "part.p_size"

    def test_batch_length(self):
        assert batch_length({}) == 0
        assert batch_length(batch(**{"t.a": [1, 2, 3]})) == 3

    def test_take_and_concat(self):
        b = batch(**{"t.a": [10, 20, 30]})
        assert list(take(b, np.array([2, 0]))["t.a"]) == [30, 10]
        joined = concat([b, b])
        assert batch_length(joined) == 6

    def test_concat_empty(self):
        assert concat([]) == {}
        b = batch(**{"t.a": []})
        assert batch_length(concat([b])) == 0


class TestSelections:
    def test_mask_ops(self):
        b = batch(**{"t.a": [1.0, 2.0, 3.0]})
        assert list(selection_mask(b, SelectionPredicate("t", "a", "<", 2.5))) == [
            True,
            True,
            False,
        ]
        assert list(selection_mask(b, SelectionPredicate("t", "a", "=", 2.0))) == [
            False,
            True,
            False,
        ]
        assert list(selection_mask(b, SelectionPredicate("t", "a", ">=", 2.0))) == [
            False,
            True,
            True,
        ]

    def test_missing_column_raises(self):
        b = batch(**{"t.a": [1.0]})
        with pytest.raises(ExecutionError):
            selection_mask(b, SelectionPredicate("t", "b", "<", 1.0))

    def test_apply_multiple(self):
        b = batch(**{"t.a": [1.0, 2.0, 3.0], "t.b": [9.0, 5.0, 1.0]})
        out = apply_selections(
            b,
            [
                SelectionPredicate("t", "a", ">", 1.0),
                SelectionPredicate("t", "b", ">", 2.0),
            ],
        )
        assert list(out["t.a"]) == [2.0]


class TestJoinIndices:
    def brute_force(self, probe, build):
        pairs = []
        for i, p in enumerate(probe):
            for j, b in enumerate(build):
                if p == b:
                    pairs.append((i, j))
        return sorted(pairs)

    @given(
        probe=st.lists(st.integers(min_value=0, max_value=8), max_size=30),
        build=st.lists(st.integers(min_value=0, max_value=8), max_size=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, probe, build):
        probe_arr = np.array(probe, dtype=np.int64)
        build_arr = np.array(build, dtype=np.int64)
        order = np.argsort(build_arr, kind="stable")
        p_idx, b_idx = join_indices(probe_arr, build_arr[order], order)
        got = sorted(zip(p_idx.tolist(), b_idx.tolist()))
        assert got == self.brute_force(probe, build)

    def test_empty_sides(self):
        empty = np.empty(0, dtype=np.int64)
        p, b = join_indices(empty, empty, empty)
        assert p.size == 0 and b.size == 0

    @staticmethod
    def nested_loop(probe, build, order):
        """Matches in kernel order: by probe row, then by sorted build slot."""
        return [
            (i, int(j))
            for i, key in enumerate(probe)
            for j in order
            if build[j] == key
        ]

    # Probe keys range past both ends of the build keys, so absent keys
    # and keys above the build maximum (searchsorted == len) are drawn.
    @given(
        probe=st.lists(st.integers(min_value=-4, max_value=14), max_size=30),
        build=st.lists(st.integers(min_value=0, max_value=9), max_size=30),
        distinct_build=st.booleans(),
        dtype=st.sampled_from([np.int64, np.float64]),
    )
    @settings(max_examples=200, deadline=None)
    def test_unique_and_general_paths_match_nested_loop(
        self, probe, build, distinct_build, dtype
    ):
        if distinct_build:
            build = list(dict.fromkeys(build))
        # Halving keeps float keys exactly representable but non-integral.
        scale = 0.5 if dtype is np.float64 else 1
        probe_arr = np.array(probe, dtype=dtype) * scale
        build_arr = np.array(build, dtype=dtype) * scale
        index = ColumnIndex.build(build_arr)
        assert index.unique == (len(set(build)) == len(build))
        want = self.nested_loop(probe_arr, build_arr, index.order)

        p_idx, b_idx = join_indices(probe_arr, index.values, index.order)
        assert list(zip(p_idx.tolist(), b_idx.tolist())) == want
        if index.unique:
            p_idx, b_idx = join_indices(probe_arr, *index)
            assert list(zip(p_idx.tolist(), b_idx.tolist())) == want

    def test_unique_path_clamps_probe_above_build_maximum(self):
        index = ColumnIndex.build(np.array([5, 1, 3]))
        p_idx, b_idx = join_indices(np.array([9, 3, 0, 5, 9]), *index)
        assert index.unique
        assert p_idx.tolist() == [1, 3] and b_idx.tolist() == [2, 0]
        assert index.order.dtype == np.int32 and b_idx.dtype == np.intp


class TestMergeBatches:
    def test_column_collision_rejected(self):
        left = batch(**{"t.a": [1]})
        right = batch(**{"t.a": [2]})
        with pytest.raises(ExecutionError):
            merge_batches(left, np.array([0]), right, np.array([0]))

    def test_merges_aligned(self):
        left = batch(**{"l.k": [1, 2]})
        right = batch(**{"r.k": [10, 20]})
        out = merge_batches(left, np.array([1, 0]), right, np.array([0, 1]))
        assert list(out["l.k"]) == [2, 1]
        assert list(out["r.k"]) == [10, 20]
