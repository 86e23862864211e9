"""Lifecycle of the access paths and counts a :class:`Database` owns.

An index is a fact about one concrete dataset, like the cardinalities in
``test_cardinality_cache.py``: it is built once however many engines ask,
dropped when the data is mutated, and never travels to another
``Database`` object — by reference or through a pickle.  So is an exact
row count taken through the indexes.
"""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import tpch_generator_spec
from repro.datagen import ColumnIndex, Database
from repro.datagen.database import compare
from repro.executor import ExecutionEngine
from repro.obs import MemorySink, Tracer
from repro.optimizer.plans import IndexScan
from repro.query import Query, SelectionPredicate

SCALE = 0.003


@pytest.fixture
def fresh_database(schema):
    return Database.generate(schema, tpch_generator_spec(SCALE), seed=99)


@pytest.fixture(scope="module")
def price_scan(schema):
    """``part`` rows under a retail price, fetched through the index."""
    pred = SelectionPredicate("part", "p_retailprice", "<", 1000.0)
    query = Query("scan", schema, ["part"], selections=[pred])
    return query, IndexScan(table="part", index_pid=pred.pid)


def test_index_is_the_stable_sort_of_the_column(fresh_database):
    column = fresh_database.column("lineitem", "l_orderkey")
    index = fresh_database.index("lineitem", "l_orderkey")
    order = np.argsort(column, kind="stable")
    assert np.array_equal(index.order, order)
    assert np.array_equal(index.values, column[order])
    assert index.order.dtype == np.int32  # resident for the dataset's life
    assert index.counts.max() > 1  # several lineitems per order
    assert fresh_database.index("orders", "o_orderkey").counts.max() == 1
    with pytest.raises(ValueError):
        index.values[0] = -1  # shared by every engine: read-only


def test_built_once_across_engines(fresh_database, price_scan):
    query, plan = price_scan
    tracer = Tracer(MemorySink())
    first = ExecutionEngine(fresh_database, tracer=tracer).execute(query, plan)
    assert fresh_database.index_builds == 1
    index = fresh_database.index("part", "p_retailprice")

    second = ExecutionEngine(fresh_database, tracer=tracer).execute(query, plan)
    assert fresh_database.index_builds == 1
    assert fresh_database.index("part", "p_retailprice") is index
    assert (second.rows, second.spent) == (first.rows, first.spent)
    assert tracer.counters["executor.index_builds"] == 1
    assert tracer.counters["executor.index_hits"] == 1


def test_rebuilt_after_in_place_mutation(fresh_database, price_scan):
    query, plan = price_scan
    engine = ExecutionEngine(fresh_database)
    before = engine.execute(query, plan).rows
    assert 0 < before < fresh_database.row_count("part")

    fresh_database.column("part", "p_retailprice")[:] = 1.0
    fresh_database.invalidate_fingerprint()
    assert engine.execute(query, plan).rows == fresh_database.row_count("part")
    assert fresh_database.index_builds == 2


def test_never_shared_between_databases(schema, fresh_database, price_scan):
    """Two databases of one schema answer from their own data."""
    query, plan = price_scan
    other = Database.generate(schema, tpch_generator_spec(SCALE), seed=100)
    other.column("part", "p_retailprice")[:] = 1.0
    rows = ExecutionEngine(fresh_database).execute(query, plan).rows
    assert ExecutionEngine(other).execute(query, plan).rows == other.row_count("part")
    assert ExecutionEngine(fresh_database).execute(query, plan).rows == rows
    assert fresh_database.index("part", "p_retailprice") is not other.index(
        "part", "p_retailprice"
    )


def test_absent_from_a_pickled_database(fresh_database):
    fresh_database.index("orders", "o_orderkey")
    payload = pickle.dumps(fresh_database)
    bare = Database(fresh_database.schema, fresh_database._tables)
    assert len(payload) == len(pickle.dumps(bare))

    clone = pickle.loads(payload)
    assert clone._indexes == {} and clone.index_builds == 0
    assert clone.fingerprint() == fresh_database.fingerprint()
    assert np.array_equal(
        clone.index("orders", "o_orderkey").order,
        fresh_database.index("orders", "o_orderkey").order,
    )


def test_join_selectivity_is_measured_once_per_dataset(fresh_database, monkeypatch):
    """Ground truth has the indexes' lifetime: measured once per column
    pair, measured again after the data is mutated, never pickled."""
    pair = ("lineitem", "l_orderkey", "orders", "o_orderkey")
    measured = fresh_database.actual_join_selectivity(*pair)
    assert measured == pytest.approx(1.0 / fresh_database.row_count("orders"))

    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    assert fresh_database.actual_join_selectivity(*pair) == measured
    assert not calls  # the whole-column pass did not run again

    clone = pickle.loads(pickle.dumps(fresh_database))
    assert clone._join_selectivities == {}
    assert clone.actual_join_selectivity(*pair) == measured and len(calls) == 2

    fresh_database.column("lineitem", "l_orderkey")[:] = -1  # matches no order
    fresh_database.invalidate_fingerprint()
    assert fresh_database.actual_join_selectivity(*pair) == 0.0


PART_COLUMNS = ("p_partkey", "p_size", "p_retailprice")
OPS = ("=", "<", "<=", ">", ">=", "in")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_memoised_count_equals_the_uncached_count(database, data):
    """Counts are memoised per (table, conditions) content: for one to
    three co-located conditions under every operator, the memo answers
    what the index work answers, and both what a whole-column mask does."""
    part = database.table("part")
    rows = st.integers(0, database.row_count("part") - 1)
    width = data.draw(st.integers(1, 3))
    conditions = []
    for column in data.draw(st.permutations(PART_COLUMNS))[:width]:
        op = data.draw(st.sampled_from(OPS))
        if op == "in":
            picked = data.draw(st.lists(rows, min_size=1, max_size=3))
            value = tuple(float(part[column][row]) for row in picked)
        else:
            value = float(part[column][data.draw(rows)])
        conditions.append((column, op, value))
    uncached = database._count_rows("part", conditions)
    masks = [compare(part[column], op, value) for column, op, value in conditions]
    assert uncached.rows == int(np.logical_and.reduce(masks).sum())
    assert database.count_rows("part", conditions) == uncached
    relisted = [(c, op, list(v) if op == "in" else v) for c, op, v in conditions]
    assert database.count_rows("part", relisted) == uncached


def test_a_repeated_count_does_no_index_work(fresh_database, monkeypatch):
    conditions = [("p_retailprice", "<", 1400.0), ("p_size", "in", (3.0, 7.0))]
    first = fresh_database.count_rows("part", conditions)
    work = []
    monkeypatch.setattr(Database, "index", lambda *a: work.append(a))
    monkeypatch.setattr(ColumnIndex, "spans", lambda *a: work.append(a))
    assert fresh_database.count_rows("part", conditions) is first
    assert work == []


def test_counts_are_dropped_by_invalidation_and_pickling(fresh_database):
    conditions = [("p_retailprice", "<", 1000.0)]
    before = fresh_database.count_rows("part", conditions)
    assert 0 < before.rows < fresh_database.row_count("part")

    payload = pickle.dumps(fresh_database)
    assert len(payload) == len(pickle.dumps(Database(fresh_database.schema, fresh_database._tables)))
    assert pickle.loads(payload)._row_counts == {}

    fresh_database.column("part", "p_retailprice")[:] = 1.0
    fresh_database.invalidate_fingerprint()
    assert fresh_database._row_counts == {}
    assert fresh_database.count_rows("part", conditions).rows == fresh_database.row_count("part")


def test_a_count_begun_before_an_invalidation_is_not_served_after_it(
    fresh_database, monkeypatch
):
    """A count that was still running when the data was mutated in place
    and invalidated lands in the memo the invalidation dropped."""
    conditions = [("p_retailprice", "<", 1000.0)]
    fresh_database.index("part", "p_retailprice")
    entered, release = threading.Event(), threading.Event()
    spans = ColumnIndex.spans

    def blocking_spans(index, op, value):
        if threading.current_thread().name == "stale":
            entered.set()
            assert release.wait(timeout=30)
        return spans(index, op, value)

    monkeypatch.setattr(ColumnIndex, "spans", blocking_spans)
    seen = []
    stale = threading.Thread(
        target=lambda: seen.append(fresh_database.count_rows("part", conditions)),
        name="stale",
    )
    stale.start()
    assert entered.wait(timeout=30)
    fresh_database.column("part", "p_retailprice")[:] = 1.0
    fresh_database.invalidate_fingerprint()
    release.set()
    stale.join(timeout=30)
    assert not stale.is_alive()

    (counted,) = seen
    after = fresh_database.count_rows("part", conditions)
    assert after.rows == fresh_database.row_count("part") != counted.rows


def test_eight_threads_on_a_cold_database_build_each_index_once(fresh_database):
    columns = [("lineitem", "l_orderkey"), ("lineitem", "l_partkey"), ("orders", "o_orderkey")]
    barrier = threading.Barrier(8)
    seen = [None] * 8

    def worker(slot):
        barrier.wait(timeout=30)
        seen[slot] = [fresh_database.index(*column) for column in columns]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)

    assert fresh_database.index_builds == len(columns)
    for got in seen:
        assert all(a is b for a, b in zip(got, seen[0]))
    for (table, column), index in zip(columns, seen[0]):
        keys = fresh_database.column(table, column)
        assert np.array_equal(index.values, np.sort(keys))
        # The INL probe table comes with the index: one per (table, column).
        assert index.starts is not None and index.low == keys.min()
        assert np.array_equal(index.counts[:-1], np.bincount(keys - index.low))


def test_invalidate_fingerprint_drops_the_probe_table(fresh_database):
    """The INL probe table is derived from the data like the index it
    sits on: shared while the data stands, rebuilt after it is mutated."""
    keys = fresh_database.column("orders", "o_orderkey")
    index = fresh_database.index("orders", "o_orderkey")
    assert fresh_database.index("orders", "o_orderkey").starts is index.starts

    probe = keys[:5] + 7
    keys += 7  # in place: the old table would place every key 7 slots off
    fresh_database.invalidate_fingerprint()
    rebuilt = fresh_database.index("orders", "o_orderkey")
    assert rebuilt.starts is not index.starts and fresh_database.index_builds == 2
    assert rebuilt.low == index.low + 7
    first, count = rebuilt.locate(probe)
    assert count.tolist() == [1] * 5
    assert keys[rebuilt.order[first]].tolist() == probe.tolist()
