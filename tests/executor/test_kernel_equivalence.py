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
from repro.executor.arrays import group_counts
from tests.conftest import node_counters


def legacy_group_counts(columns, weights=None):
    """The group-by this kernel replaced: per batch a row sort
    (``np.unique`` over the stacked keys), across batches a dict of
    Python tuples sorted at the end."""
    stacked = np.stack(columns, axis=1)
    if weights is None and len(stacked):
        stacked, weights = np.unique(stacked, axis=0, return_counts=True)
    totals = {}
    for row, weight in zip(stacked.tolist(), [] if weights is None else weights.tolist()):
        totals[tuple(row)] = totals.get(tuple(row), 0) + weight
    groups = sorted(totals)
    keys = np.array(groups).reshape(len(groups), len(columns))
    return [keys[:, i] for i in range(len(columns))], [totals[g] for g in groups]


class TestGroupCounts:
    @staticmethod
    def assert_same(got, want):
        (got_keys, got_counts), (want_keys, want_counts) = got, want
        assert got_counts.dtype == np.int64
        assert got_counts.tolist() == want_counts
        assert len(got_keys) == len(want_keys)
        for got_column, want_column in zip(got_keys, want_keys):
            assert got_column.tolist() == want_column.tolist()

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=-2, max_value=3),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=40),
            ),
            max_size=40,
        ),
        width=st.integers(min_value=1, max_value=3),
        cuts=st.lists(st.integers(min_value=0, max_value=40), max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_row_sort_whole_and_merged_from_batches(self, rows, width, cuts):
        table = np.array(rows, dtype=np.int64).reshape(len(rows), 3)
        # An int, a float and a wide-range int column, as group-bys mix.
        columns = [table[:, 0], table[:, 1] * 0.5, table[:, 2]][:width]
        want = legacy_group_counts(columns)
        self.assert_same(group_counts(columns), want)

        bounds = sorted({0, len(rows), *(min(c, len(rows)) for c in cuts)})
        partials = [
            group_counts([column[lo:hi] for column in columns])
            for lo, hi in zip(bounds, bounds[1:])
        ]
        if partials:
            merged = group_counts(
                [np.concatenate(parts) for parts in zip(*(k for k, _ in partials))],
                weights=np.concatenate([c for _, c in partials]),
            )
            self.assert_same(merged, want)

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

    def row_sort_groups(columns, weights=None):
        keys, counts = legacy_group_counts(columns, weights)
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
