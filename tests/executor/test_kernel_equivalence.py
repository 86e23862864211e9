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

Keeping a bound plan's build sides is held to the same contract: a run
that replays them is the run that recorded them and the run of a fresh
binding.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.executor import CostPerturbation, ExecutionEngine, Instrumentation, engine
from repro.executor import engine as engine_module
from repro.datagen.database import DENSE_SLOTS_PER_KEY
from repro.executor.arrays import group_counts, group_radices
from repro.obs import MemorySink, Tracer
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


@pytest.fixture(scope="module")
def bouquet_plans(pool, database, lab):
    """``(query, plan, database)`` for every bouquet plan of the
    ``serve_hot``-shaped pool (the canned texts first) and of every
    Table 2 query on ``Lab()`` data."""
    served = [(compiled.query, compiled.bouquet, database) for compiled in pool] + [
        (ql.workload.query, ql.bouquet, lab.ds_db if "DS" in name else lab.h_db)
        for name in sorted(lab.workload)
        for ql in [lab.build(name)]
    ]
    return [
        (query, bouquet.registry.plan(plan_id), data)
        for query, bouquet, data in served
        for plan_id in bouquet.plan_ids
    ]


def same_run(a, b):
    """Two executions are the same run: rows, spend, per-node account
    and (when collected) output."""
    assert (a.completed, a.rows, a.spent) == (b.completed, b.rows, b.spent)
    assert node_counters(a) == node_counters(b)
    rows, other = a.result or {}, b.result or {}
    assert rows.keys() == other.keys()
    assert all(np.array_equal(rows[k], other[k]) for k in rows)


def build_joins(bound):
    return [op for op in bound.ops.values() if hasattr(op, "kept")]


def cut_points(engine, query, bound, monkeypatch):
    """Budgets that kill a run of ``bound`` halfway through each node's
    first positive charge and through every charge of each kept build's
    root (the last node its log names), so inside and at the end of
    every replayed build."""
    charges = []
    charge = Instrumentation.charge
    monkeypatch.setattr(
        Instrumentation,
        "charge",
        lambda inst, node, cost: charges.append((node, cost)) or charge(inst, node, cost),
    )
    engine.execute(query, bound)
    monkeypatch.undo()
    ends = {id(op.kept.log[-1][1]) for op in build_joins(bound) if op.kept.log}
    spent, seen, budgets = 0.0, set(), []
    for node, cost in charges:
        if cost > 0 and (id(node) not in seen or id(node) in ends):
            seen.add(id(node))
            budgets.append(spent + cost / 2)
        spent += cost
    return budgets


def test_recorded_replayed_and_fresh_runs_are_the_same_run(bouquet_plans, monkeypatch):
    """A bound plan's first run records its build sides and every later
    run replays them; a fresh binding records again.  All three are the
    same run whole, killed at budgets across the run (inside each
    replayed build too), under cost perturbation, and on an engine of
    another batch size — which records its own builds rather than
    replay.  A killed first run keeps exactly the builds it got past."""
    replayed = recorded_on_resize = 0
    for query, plan, data in bouquet_plans:
        shipped = ExecutionEngine(data)
        bound = shipped.bind(query, plan)
        recording = shipped.execute(query, bound, collect=True)
        replaying = shipped.execute(query, bound, collect=True)
        same_run(recording, replaying)
        same_run(recording, shipped.execute(query, shipped.bind(query, plan), collect=True))
        replayed += any(op.kept is not None for op in build_joins(bound))

        for budget in cut_points(shipped, query, bound, monkeypatch):
            first = shipped.bind(query, plan)
            killed = shipped.execute(query, first, budget=budget)
            assert not killed.completed
            for op in build_joins(first):
                built = killed.instrumentation.finished(op.node.right)
                assert (op.kept is not None) == built
            same_run(killed, shipped.execute(query, bound, budget=budget))

        # Builds recorded on either engine replay on both: the log holds
        # charges before perturbation, and each engine scales its own.
        perturbed = ExecutionEngine(data, perturbation=CostPerturbation(0.2))
        noisy = perturbed.bind(query, plan)
        recorded = perturbed.execute(query, noisy, collect=True)
        same_run(recorded, perturbed.execute(query, noisy, collect=True))
        same_run(recorded, perturbed.execute(query, bound, collect=True))
        same_run(shipped.execute(query, noisy, collect=True), recording)
        cut = recorded.spent / 2
        same_run(
            perturbed.execute(query, bound, budget=cut),
            perturbed.execute(query, perturbed.bind(query, plan), budget=cut),
        )

        tracer = Tracer(MemorySink())
        resized = ExecutionEngine(data, batch_size=1000, tracer=tracer)
        same_run(resized.execute(query, bound), resized.execute(query, resized.bind(query, plan)))
        assert "executor.build_replays" not in tracer.counters
        recorded_on_resize += tracer.counters.get("executor.builds", 0) > 0
    assert replayed and recorded_on_resize == replayed


def test_racing_first_runs_keep_one_consistent_build(pool, database):
    """Threads (more than the cores) racing a bound plan's first run, on
    a short switch interval: every one answers as a fresh binding, and
    whichever build is kept, the plan's next run replays it as one."""
    engine = ExecutionEngine(database)
    plans = [
        (compiled.query, compiled.bouquet.registry.plan(plan_id))
        for compiled in pool
        for plan_id in compiled.bouquet.plan_ids
    ]
    raced = 0
    interval = sys.getswitchinterval()
    for query, plan in plans:
        bound = engine.bind(query, plan)
        start = threading.Barrier(4)
        results = []

        def run():
            start.wait(timeout=60)
            results.append(engine.execute(query, bound, collect=True))

        threads = [threading.Thread(target=run) for _ in range(4)]
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and len(results) == 4
        fresh = engine.bind(query, plan)
        want = engine.execute(query, fresh, collect=True)
        for result in results + [engine.execute(query, bound, collect=True)]:
            same_run(result, want)
        for op, other in zip(build_joins(bound), build_joins(fresh)):
            kept, wanted = op.kept, other.kept
            assert (kept.rows, kept.batch_size) == (wanted.rows, wanted.batch_size)
            assert [(kind, id(node), value) for kind, node, value in kept.log] == [
                (kind, id(node), value) for kind, node, value in wanted.log
            ]
            assert kept.batch.keys() == wanted.batch.keys()
            assert all(np.array_equal(kept.batch[k], wanted.batch[k]) for k in kept.batch)
            raced += 1
    assert raced
