"""The join and group-by kernels change wall time and nothing else.

A serving pool shaped like the benchmark's ``serve_hot`` workload (the
three canned texts plus generated queries under an abstract-cost cap) is
compiled once and run twice: with the engine as shipped, and with its
kernels swapped for the ones they replaced — for every hash, merge, NL
and INL probe, two binary searches of the build side's stable
comparison sort, and the row-sort group-by.  Charges are the contract: the
bouquet driver must see the same budgets, kills and learned
selectivities, and the rows must match the independent evaluator.  The
runs start at the ESS origin (``origin_started``), because a run that
starts from the index probes never spills on this pool.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.executor import ExecutionEngine, engine
from repro.executor import engine as engine_module
from repro.datagen.database import DENSE_SLOTS_PER_KEY
from repro.executor.arrays import group_counts, group_radices
from tests.conftest import node_counters


def legacy_group_counts(columns):
    """The group-by this kernel replaced: a row sort (``np.unique`` over
    the stacked keys), its groups gathered into a dict of Python tuples
    sorted at the end."""
    stacked = np.stack(columns, axis=1)
    totals = {}
    if len(stacked):
        stacked, weights = np.unique(stacked, axis=0, return_counts=True)
        totals = dict(zip(map(tuple, stacked.tolist()), weights.tolist()))
    groups = sorted(totals)
    keys = np.array(groups).reshape(len(groups), len(columns))
    return [keys[:, i] for i in range(len(columns))], [totals[g] for g in groups]


#: Key columns as group-bys meet them, made from small ints in [-40, 40]:
#: negative and unsigned integers of several widths, booleans, floats,
#: and integers whose span is far past the direct-address rule.
KEY_KINDS = {
    "int8": lambda v: v.astype(np.int8),
    "int64": lambda v: v,
    "int64, wide": lambda v: v * 1_000_003,
    "uint16": lambda v: np.abs(v).astype(np.uint16),
    "bool": lambda v: v % 2 == 0,
    "float64": lambda v: v * 0.5,
}


class TestGroupCounts:
    @staticmethod
    def assert_same(columns, got, want):
        (got_keys, got_counts), (want_keys, want_counts) = got, want
        assert got_counts.dtype == np.int64
        assert got_counts.tolist() == want_counts
        assert len(got_keys) == len(want_keys) == len(columns)
        for column, got_column, want_column in zip(columns, got_keys, want_keys):
            assert got_column.dtype == column.dtype
            assert got_column.tolist() == want_column.tolist()

    @given(
        rows=st.lists(
            st.tuples(*[st.integers(min_value=-40, max_value=40)] * 3), max_size=60
        ),
        kinds=st.lists(st.sampled_from(sorted(KEY_KINDS)), min_size=1, max_size=3),
        cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_row_sort_whole_and_merged_from_batches(self, rows, kinds, cuts):
        table = np.array(rows, dtype=np.int64).reshape(len(rows), 3)
        columns = [KEY_KINDS[kind](table[:, i]) for i, kind in enumerate(kinds)]
        want = legacy_group_counts(columns)
        self.assert_same(columns, group_counts(columns), want)

        # An aggregate groups its input batches concatenated, in any order.
        bounds = sorted({0, len(rows), *(min(c, len(rows)) for c in cuts)})
        batches = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])][::-1]
        if batches:
            merged = [np.concatenate([column[b] for b in batches]) for column in columns]
            self.assert_same(columns, group_counts(merged), want)

    @given(
        n=st.integers(min_value=2, max_value=1500),
        width=st.integers(min_value=1, max_value=3),
        shift=st.sampled_from([-1, 0, 1]),
        low=st.integers(min_value=-70_000, max_value=70_000),
        dtype=st.sampled_from([np.int64, np.int32]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_row_sort_either_side_of_the_span_limit(
        self, n, width, shift, low, dtype, seed
    ):
        """Keys whose code space is at most ``DENSE_SLOTS_PER_KEY ·
        max(n, 512)`` slots are addressed; widen the last column's span
        by one past that and they are sorted.  Either way the groups are
        the row sort's."""
        limit = DENSE_SLOTS_PER_KEY * max(n, 512)
        spans = {1: [limit], 2: [8, limit // 8], 3: [2, 4, limit // 8]}[width]
        spans[-1] += shift  # just under, at, or just over the limit
        rng = np.random.default_rng(seed)
        columns = []
        for span in spans:
            column = low + rng.integers(0, span, size=n)
            column[:2] = low, low + span - 1  # the span is attained
            columns.append(column.astype(dtype))
        assert (group_radices(columns) is None) == (shift > 0)
        self.assert_same(columns, group_counts(columns), legacy_group_counts(columns))

    def test_addresses_keys_at_the_ends_of_int64(self):
        """Forming a code may wrap past int64 on the way; the code
        itself lies in ``[0, slots)``, so the groups are exact."""
        top, bottom = np.iinfo(np.int64).max, np.iinfo(np.int64).min
        columns = [
            np.array([top, top - 2, top, top - 1], dtype=np.int64),
            np.array([bottom + 1, bottom, bottom + 1, bottom], dtype=np.int64),
        ]
        assert group_radices(columns) == [(top - 2, 3), (bottom, 2)]
        self.assert_same(columns, group_counts(columns), legacy_group_counts(columns))

    def test_keeps_each_column_dtype(self):
        keys, counts = group_counts([np.array([2, 1, 2]), np.array([0.5, 0.5, 0.5])])
        assert keys[0].dtype == np.int64 and keys[1].dtype == np.float64
        assert keys[0].tolist() == [1, 2] and counts.tolist() == [1, 2]


def account(result):
    return (
        result.total_cost,
        result.result_rows,
        [
            (e.plan_id, e.spilled, e.budget, e.cost_spent, e.completed, e.learned)
            for e in result.executions
        ],
    )


def test_pool_runs_identically_on_the_replaced_kernels(
    pool, database, origin_started, expected_rows, monkeypatch
):
    shipped = [origin_started(compiled, database) for compiled in pool]
    probes = []

    def two_pass_join(probe_keys, index):
        """The probe the direct-address table replaced: the build keys
        re-sorted by comparison, two binary searches, the runs expanded."""
        probes.append(probe_keys.size)
        keys = np.empty_like(index.values)
        keys[index.order] = index.values
        order = np.argsort(keys, kind="stable")
        lo = np.searchsorted(keys[order], probe_keys, side="left")
        counts = np.searchsorted(keys[order], probe_keys, side="right") - lo
        ends = np.cumsum(counts)
        offsets = np.arange(int(counts.sum())) - np.repeat(ends - counts, counts)
        build_pos = np.repeat(lo, counts) + offsets
        return np.repeat(np.arange(probe_keys.size), counts), order[build_pos]

    def row_sort_groups(columns):
        keys, counts = legacy_group_counts(columns)
        return keys, np.array(counts, dtype=np.int64)

    monkeypatch.setattr(engine, "join_indices", two_pass_join)
    monkeypatch.setattr(engine, "group_counts", row_sort_groups)
    replaced = [origin_started(compiled, database) for compiled in pool]

    for compiled, new, old in zip(pool, shipped, replaced):
        assert account(new) == account(old), compiled.query.name
        assert new.completed
        assert new.result_rows == expected_rows(compiled.query)
    # The pool exercises what the kernels specialise on.
    assert probes and sum(probes) > 0
    assert any(compiled.query.group_by for compiled in pool)
    assert any(e.spilled for result in shipped for e in result.executions)


def test_replayed_build_scans_run_as_materialised_ones(
    pool, database, origin_started, monkeypatch
):
    """A hash, merge or NL build side that scans a whole base table binds
    the database's index and base columns and replays the scan's charges
    and tuple counts.  Bound with every build side materialised instead
    (the scan run, its batches concatenated, an index built over them),
    each bouquet plan returns the same rows and, run whole or killed at
    budgets across its run, charges and counts the same per node — and
    every origin-started run of the pool is the same run."""

    def rebound(compiled):
        compiled.bouquet.measured_on("another dataset")  # bind afresh
        return origin_started(compiled, database)

    engine = ExecutionEngine(database)
    plans = [
        (compiled.query, compiled.bouquet.registry.plan(plan_id))
        for compiled in pool
        for plan_id in compiled.bouquet.plan_ids
    ]
    replayed = [engine.bind(query, plan) for query, plan in plans]
    shipped = [rebound(compiled) for compiled in pool]
    monkeypatch.setattr(engine_module, "_whole_table", lambda node: False)
    materialised = [engine.bind(query, plan) for query, plan in plans]
    rerun = [rebound(compiled) for compiled in pool]
    monkeypatch.undo()

    shared = 0
    for (query, _), ours, theirs in zip(plans, replayed, materialised):
        shared += any(getattr(op, "shared", None) is not None for op in ours.ops.values())
        whole = engine.execute(query, ours, collect=True)
        other = engine.execute(query, theirs, collect=True)
        assert node_counters(whole) == node_counters(other)
        assert (whole.rows, whole.spent) == (other.rows, other.spent)
        rows, other_rows = whole.result or {}, other.result or {}
        assert rows.keys() == other_rows.keys()
        assert all(np.array_equal(rows[k], other_rows[k]) for k in rows)
        charges = sorted({c for _, _, c, _ in node_counters(whole) if c > 0})
        for budget in [whole.spent * k / 16 for k in range(1, 16)] + [c / 2 for c in charges]:
            killed = engine.execute(query, ours, budget=budget)
            assert not killed.completed
            assert node_counters(killed) == node_counters(engine.execute(query, theirs, budget=budget))
    assert shared
    for compiled, new, old in zip(pool, shipped, rerun):
        assert account(new) == account(old), compiled.query.name
