"""Unit + property tests for the vectorized executor helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import ColumnIndex
from repro.datagen.database import DENSE_SLOTS_PER_KEY
from repro.exceptions import ExecutionError
from repro.executor.arrays import (
    apply_selections,
    batch_length,
    concat,
    filter_rows,
    join_indices,
    merge_batches,
    qualify,
    selection_mask,
    take,
)
from repro.query import SelectionPredicate


def batch(**cols):
    return {name: np.asarray(values) for name, values in cols.items()}


def matches(probe_keys, index):
    """:func:`join_indices`' pairs as ``[(probe_row, build_row)]``, a
    pass-through probe index (``slice(None)``) read as every probe row."""
    p_idx, b_idx = join_indices(probe_keys, index)
    return list(zip(np.arange(len(probe_keys))[p_idx].tolist(), b_idx.tolist()))


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


class TestFilterRows:
    """Row ids gathered once equal the mask's definition, column by column."""

    @given(
        keep=st.lists(st.booleans(), max_size=40),
        width=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_the_mask_definition(self, keep, width):
        mask = np.array(keep, dtype=bool)
        rng = np.random.default_rng(len(keep) * 8 + width)
        columns = {
            f"t.c{k}": rng.integers(-9, 9, size=mask.size) * (0.5 if k % 2 else 1)
            for k in range(width)
        }
        out = filter_rows(columns, mask)
        assert list(out) == list(columns)
        for name, column in columns.items():
            assert out[name].dtype == column.dtype
            assert out[name].tolist() == column[mask].tolist()
        assert (out is columns) == bool(mask.all())

    @given(
        a=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=30),
        bound=st.integers(min_value=-1, max_value=7),
    )
    @settings(max_examples=100, deadline=None)
    def test_apply_selections_equals_the_mask_definition(self, a, bound):
        b = batch(**{"t.a": a, "t.b": [float(len(a) - i) for i in range(len(a))]})
        preds = [SelectionPredicate("t", "a", "<=", bound), SelectionPredicate("t", "b", ">", 2.0)]
        mask = (b["t.a"] <= bound) & (b["t.b"] > 2.0)
        out = apply_selections(b, preds)
        assert {name: column.tolist() for name, column in out.items()} == {
            name: column[mask].tolist() for name, column in b.items()
        }


class TestPassThroughProbe:
    """``join_indices`` passes the probe side through (``slice(None)``)
    exactly when every probe row has one partner, and its pairs are the
    nested loop's whichever way it answers."""

    @given(
        build=st.lists(st.integers(min_value=0, max_value=12), max_size=20, unique=True),
        picks=st.lists(st.integers(min_value=0, max_value=40), max_size=30),
        extra=st.sampled_from(["none", "miss", "above", "below", "duplicate"]),
        dtype=st.sampled_from([np.int64, np.float64]),
    )
    @settings(max_examples=200, deadline=None)
    def test_pairs_are_the_nested_loop(self, build, picks, extra, dtype):
        probe = [build[p % len(build)] for p in picks] if build else []
        keys = list(build)
        if extra == "miss":
            probe.append(13)  # inside the build's span when it reaches 13
            keys.append(14)
        elif extra == "above":
            probe.append(99)
        elif extra == "below":
            probe.append(-5)
        elif extra == "duplicate" and build:
            keys.append(build[0])
            probe.append(build[0])
        probe_arr, build_arr = np.array(probe, dtype=dtype), np.array(keys, dtype=dtype)
        index = ColumnIndex.build(build_arr)
        p_idx, b_idx = join_indices(probe_arr, index)
        want = TestJoinIndices.nested_loop(probe_arr, build_arr, index.order)
        assert matches(probe_arr, index) == want
        one_each = len(want) == probe_arr.size > 0 and [i for i, _ in want] == list(
            range(probe_arr.size)
        )
        assert isinstance(p_idx, slice) == one_each
        assert b_idx.dtype == np.intp

    def test_empty_and_all_miss_probes_are_row_ids(self):
        index = ColumnIndex.build(np.array([4, 2, 7]))
        for probe in (np.empty(0, dtype=np.int64), np.array([0, 5, 9, -3])):
            p_idx, b_idx = join_indices(probe, index)
            assert p_idx.size == 0 and b_idx.size == 0

    def test_as_many_pairs_as_rows_is_not_one_partner_each(self):
        """Two partners for one row and none for another: the pair count
        equals the row count, yet the probe side does not pass through."""
        p_idx, b_idx = join_indices(np.array([1, 9]), ColumnIndex.build(np.array([1, 1])))
        assert p_idx.tolist() == [0, 0] and b_idx.tolist() == [0, 1]

    def test_merge_keeps_a_passed_through_side(self):
        left = batch(**{"l.k": [3, 1, 2], "l.v": [0.5, 1.5, 2.5]})
        right = batch(**{"r.k": [1, 2, 3]})
        p_idx, b_idx = join_indices(left["l.k"], ColumnIndex.build(right["r.k"]))
        out = merge_batches(left, p_idx, right, b_idx)
        assert isinstance(p_idx, slice)
        assert all(out[name] is column for name, column in left.items())
        assert out["r.k"].tolist() == [3, 1, 2]


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
        got = sorted(matches(probe_arr, ColumnIndex.build(build_arr)))
        assert got == self.brute_force(probe, build)

    def test_empty_sides(self):
        empty = np.empty(0, dtype=np.int64)
        keys = np.array([3, 1, 3])
        for probe, build in ((empty, empty), (keys, empty), (empty, keys)):
            p, b = join_indices(probe, ColumnIndex.build(build))
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
    def test_dense_and_searched_paths_match_nested_loop(
        self, probe, build, distinct_build, dtype
    ):
        if distinct_build:
            build = list(dict.fromkeys(build))
        # Halving keeps float keys exactly representable but non-integral.
        scale = 0.5 if dtype is np.float64 else 1
        probe_arr = np.array(probe, dtype=dtype) * scale
        build_arr = np.array(build, dtype=dtype) * scale
        index = ColumnIndex.build(build_arr)
        # Integer keys this close together are addressed; floats searched.
        assert index.addresses(probe_arr) == (dtype is np.int64 and bool(build))
        want = self.nested_loop(probe_arr, build_arr, index.order)
        assert matches(probe_arr, index) == want

    def test_dense_probe_clamps_keys_above_build_maximum(self):
        index = ColumnIndex.build(np.array([5, 1, 3]))
        p_idx, b_idx = join_indices(np.array([9, 3, 0, 5, 9]), index)
        assert index.starts is not None
        assert p_idx.tolist() == [1, 3] and b_idx.tolist() == [2, 0]
        assert index.order.dtype == np.int32 and b_idx.dtype == np.intp


#: The widest span a build of at most 512 keys is addressed over.
SMALL_BUILD_SLOTS = DENSE_SLOTS_PER_KEY * 512


class TestDenseProbe:
    """The direct-address table against the nested loop: the same pairs
    in the same order whichever way :class:`ColumnIndex` finds them."""

    # Build offsets folded into ``spread`` consecutive integers, the
    # extremes pinned so the span is exactly ``spread``: just inside the
    # density rule for a small build (addressed) and one past it
    # (searched).  Probe offsets reach 3 below the minimum and 3 above the
    # maximum, and land in the gaps between build keys.
    @given(
        build=st.lists(st.integers(min_value=0, max_value=1 << 16), max_size=40),
        probe=st.lists(st.integers(min_value=0, max_value=1 << 16), max_size=40),
        spread=st.sampled_from(
            [1, 9, SMALL_BUILD_SLOTS, SMALL_BUILD_SLOTS + 1, 4 * SMALL_BUILD_SLOTS]
        ),
        low=st.integers(min_value=-(2**31) + 3, max_value=2**31 - 2**16),
        dtype=st.sampled_from([np.int32, np.int64, np.float64]),
        probe_dtype=st.sampled_from([None, np.int32, np.int64, np.float64]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_nested_loop(self, build, probe, spread, low, dtype, probe_dtype):
        offsets = [b % spread for b in build]
        if len(offsets) >= 2:
            offsets[0], offsets[-1] = 0, spread - 1
        probe_dtype = probe_dtype or dtype

        def keys(values, kind):
            # Halved floats are exactly representable and non-integral.
            array = np.array(values, dtype=kind)
            return array * 0.5 if kind is np.float64 else array

        build_arr = keys([low + o for o in offsets], dtype)
        probe_arr = keys([low + p % (spread + 6) - 3 for p in probe], probe_dtype)
        index = ColumnIndex.build(build_arr)

        span = spread if len(build) >= 2 else len(build)
        dense = dtype is not np.float64 and 0 < span <= SMALL_BUILD_SLOTS
        assert (index.starts is not None) == dense
        assert index.addresses(probe_arr) == (dense and probe_dtype is not np.float64)
        stable = np.argsort(build_arr, kind="stable")
        assert index.order.tolist() == stable.tolist()
        assert index.values.tolist() == build_arr[stable].tolist()
        for array in index:
            assert not isinstance(array, np.ndarray) or not array.flags.writeable

        want = TestJoinIndices.nested_loop(probe_arr, build_arr, stable)
        assert matches(probe_arr, index) == want

    def test_keys_at_the_ends_of_int64(self):
        """Probe offsets wrap modulo 2**64 and still miss."""
        top, bottom = np.iinfo(np.int64).max, np.iinfo(np.int64).min
        probe = np.array([bottom, top, bottom + 1, top - 1, 0], dtype=np.int64)
        for build in ([top, top - 2, top], [bottom + 1, bottom + 3, bottom + 1]):
            build_arr = np.array(build, dtype=np.int64)
            index = ColumnIndex.build(build_arr)
            assert index.addresses(probe)
            want = TestJoinIndices.nested_loop(probe, build_arr, index.order)
            p_idx, b_idx = join_indices(probe, index)
            assert list(zip(p_idx.tolist(), b_idx.tolist())) == want and want

    def test_wide_duplicate_keys_take_two_radix_digits(self):
        """A span past 2**16 sorts by two 16-bit digits — the same
        permutation as a stable comparison sort, the same pairs as the
        searched path over the same keys."""
        rng = np.random.default_rng(5)
        build = rng.integers(-70_000, 70_000, size=20_000)
        probe = rng.integers(-70_010, 70_010, size=5_000)
        dense = ColumnIndex.build(build)
        searched = ColumnIndex.build(build.astype(np.float64))
        assert dense.starts is not None and searched.starts is None
        assert np.array_equal(dense.order, np.argsort(build, kind="stable"))
        for got, want in zip(join_indices(probe, dense), join_indices(probe * 1.0, searched)):
            assert np.array_equal(got, want)


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
