"""Regression: the exact cardinalities behind a spill's learned
selectivity (§5.2) are facts about one bouquet on one concrete dataset.
An error-free subtree is executed once per (bouquet, data fingerprint)
however many requests spill on it — and again when the data changes, so
regenerated data never sees stale denominators."""

from __future__ import annotations

import json

import pytest

from repro.api import BouquetConfig, Catalog, CompiledBouquet
from repro.catalog import tpch_generator_spec
from repro.core import identify_bouquet
from repro.core.runtime import BouquetRunner
from repro.datagen import Database
from repro.ess import ErrorDimension, PlanDiagram, SelectivitySpace
from repro.executor import ExecutionEngine, RealExecutionService
from repro.optimizer import actual_selectivities

SCALE = 0.003
JOIN_PID = "join:lineitem.l_orderkey=orders.o_orderkey"


@pytest.fixture(scope="module")
def other_database(schema):
    return Database.generate(schema, tpch_generator_spec(SCALE), seed=8)


@pytest.fixture(scope="module")
def join_bouquet(optimizer, eq_query, database):
    """EQ with its lineitem-orders join as the one error dimension: a
    run starts at the origin and learns the join by spilling on it."""
    base = actual_selectivities(eq_query, database)
    space = SelectivitySpace(eq_query, [ErrorDimension(JOIN_PID, 1e-7, 1.0, "lo")], 24, base)
    return identify_bouquet(PlanDiagram.exhaustive(optimizer, space))


def _request(bouquet, database, monkeypatch, executed):
    """One request's run, recording every plan the engine executes."""
    real = ExecutionEngine.execute
    monkeypatch.setattr(
        ExecutionEngine,
        "execute",
        lambda self, query, plan, *a, **k: executed.append(plan.signature())
        or real(self, query, plan, *a, **k),
    )
    service = RealExecutionService(bouquet, ExecutionEngine(database))
    result = BouquetRunner(bouquet, service).run()
    monkeypatch.undo()
    return result


def _subtrees(bouquet, executed):
    """The executed plans that are no whole bouquet plan."""
    plans = {bouquet.registry.plan(pid).signature() for pid in bouquet.plan_ids}
    return [signature for signature in executed if signature not in plans]


def test_cache_survives_while_data_is_unchanged(join_bouquet, database, monkeypatch):
    first, second = [], []
    cold = _request(join_bouquet, database, monkeypatch, first)
    warm = _request(join_bouquet, database, monkeypatch, second)
    assert _subtrees(join_bouquet, first), "no spill measured a subtree"
    assert _subtrees(join_bouquet, second) == []
    assert warm.executions == cold.executions
    assert warm.result_rows == cold.result_rows


def test_cache_cleared_when_engine_points_at_new_data(
    join_bouquet, database, other_database, monkeypatch
):
    _request(join_bouquet, database, monkeypatch, [])
    regenerated = []
    _request(join_bouquet, other_database, monkeypatch, regenerated)
    assert _subtrees(join_bouquet, regenerated)
    # And again when swapping back: the fingerprint moved a second time.
    back = []
    _request(join_bouquet, database, monkeypatch, back)
    assert _subtrees(join_bouquet, back)


def test_subtree_rows_are_never_serialised(
    join_bouquet, eq_query, schema, statistics, database, monkeypatch
):
    compiled = CompiledBouquet(eq_query, join_bouquet, BouquetConfig())
    join_bouquet.measured_on("another dataset")  # the record starts over
    cold = json.dumps(compiled.to_dict(), sort_keys=True)
    _request(join_bouquet, database, monkeypatch, [])
    assert join_bouquet.measured_on(database.fingerprint()).subtree_rows
    assert json.dumps(compiled.to_dict(), sort_keys=True) == cold
    catalog = Catalog(schema, statistics=statistics, database=database)
    loaded = CompiledBouquet.from_dict(json.loads(cold), catalog, eq_query)
    record = loaded.bouquet.measured_on(database.fingerprint())
    assert record.subtree_rows == {} and record.known is None


def test_learning_uses_the_current_database(eq_bouquet, database, other_database):
    """The actual regression: learned selectivities after an engine swap
    must be computed against the new data's cardinalities."""
    pid = eq_bouquet.space.dimensions[0].pid
    plan_id = sorted(eq_bouquet.plan_ids)[0]

    def learned_value(service):
        outcome = service.run_spilled(plan_id, 1e12, frozenset([pid]))
        (learned,) = [item for item in outcome.learned if item.pid == pid]
        return learned.value

    service = RealExecutionService(eq_bouquet, ExecutionEngine(database))
    learned_value(service)  # warms the cache with database's cardinalities

    service.engine = ExecutionEngine(other_database)
    after = learned_value(service)

    expected = learned_value(
        RealExecutionService(eq_bouquet, ExecutionEngine(other_database))
    )
    assert after == pytest.approx(expected)


class TestDatabaseFingerprint:
    def test_stable_and_cached(self, schema):
        db = Database.generate(schema, tpch_generator_spec(SCALE), seed=99)
        fp = db.fingerprint()
        assert fp == db.fingerprint()
        assert db._fingerprint == fp

    def test_different_data_different_fingerprint(self, database, other_database):
        assert database.fingerprint() != other_database.fingerprint()

    def test_in_place_mutation_needs_explicit_invalidation(self, schema):
        db = Database.generate(schema, tpch_generator_spec(SCALE), seed=99)
        fp = db.fingerprint()
        column = next(iter(db.table("part").values()))
        column += 1
        # The cached digest is (documented to be) stale until invalidated.
        assert db.fingerprint() == fp
        db.invalidate_fingerprint()
        assert db.fingerprint() != fp
