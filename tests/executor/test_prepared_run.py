"""A prepared run answers as a cold one.

A bouquet keeps, per dataset and cost model, its plans bound to the data
(``Measured.plans``), and per start point the run's opening with its
first move (``PlanBouquet.opening``).  A repeat request reuses both; a
cold one (the memos dropped) binds and decides afresh.  Over the canned
texts, the ``serve_hot``-shaped pool and every Table 2 query on
``Lab()`` data, in both modes, the two must give the same
``BouquetRunResult`` — and, under request budgets that cut the run
inside each plan node of each execution, the same kill points and the
same per-node counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import BouquetConfig, BudgetCappedService, CompiledBouquet, execute
from repro.catalog import tpch_generator_spec
from repro.core.runtime import BouquetRunner
from repro.datagen import Database
from repro.exceptions import BudgetExceeded
from repro.executor import ExecutionEngine, Instrumentation, RealExecutionService
from repro.executor.reference import reference_row_count
from repro.optimizer.plans import Join, SeqScan
from tests.conftest import node_counters

MODES = ("optimized", "basic")


def cold(compiled):
    """Drop the bouquet's dataset record and opening: the next request
    probes, binds and decides afresh."""
    compiled.bouquet.measured_on("another dataset")
    compiled.bouquet.opening("another start", lambda: None)


@pytest.fixture(scope="module")
def table2(lab):
    """``(compiled, database)`` for every Table 2 query of ``Lab()``."""
    return [
        (
            CompiledBouquet(ql.workload.query, ql.bouquet, BouquetConfig()),
            lab.ds_db if "DS" in name else lab.h_db,
        )
        for name in sorted(lab.workload)
        for ql in [lab.build(name)]
    ]


@pytest.fixture(scope="module")
def served(pool, database, table2):
    return [(compiled, database) for compiled in pool] + table2


class Recording(ExecutionEngine):
    """The engine, keeping the result of every budgeted execution (the
    once-per-dataset subtree measurements run unbudgeted)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.results = []

    def execute(self, *args, **kwargs):
        result = super().execute(*args, **kwargs)
        if result.instrumentation.budget is not None:
            self.results.append(result)
        return result

    def execute_spilled(self, *args, **kwargs):
        result, node = super().execute_spilled(*args, **kwargs)
        self.results.append(result)
        return result, node


def capped_run(compiled, database, mode, budget):
    """One request under a total ``budget``: how it ended, what it
    spent and every execution's account."""
    engine = Recording(database, cost_model=compiled.config.cost_model_object)
    service = BudgetCappedService(RealExecutionService(compiled.bouquet, engine), budget)
    try:
        outcome = BouquetRunner(compiled.bouquet, service, mode=mode).run()
    except BudgetExceeded:
        outcome = "killed"
    executions = [(r.completed, r.rows, r.spent, node_counters(r)) for r in engine.results]
    return outcome, service.spent, executions


def kill_budgets(compiled, database, mode, monkeypatch):
    """Request budgets that stop the run inside each plan node's first
    positive charge, in every execution of the cold run (a charge its
    contour budget clipped aside)."""
    log = []
    charge = Instrumentation.charge

    def logged(inst, node, cost):
        log.append((inst, id(node), cost))
        return charge(inst, node, cost)

    cold(compiled)
    monkeypatch.setattr(Instrumentation, "charge", logged)
    engine = Recording(database, cost_model=compiled.config.cost_model_object)
    result = BouquetRunner(
        compiled.bouquet, RealExecutionService(compiled.bouquet, engine), mode=mode
    ).run()
    monkeypatch.undo()
    budgets = []
    prefix = result.probe_cost
    for executed in engine.results:
        spent, seen = 0.0, set()
        for inst, node, cost in log:
            if inst is not executed.instrumentation:
                continue
            if 0 < cost and spent + cost <= executed.spent and node not in seen:
                seen.add(node)
                budgets.append(prefix + spent + cost / 2)
            spent += cost
        prefix += executed.spent
    return result, budgets


class TestPreparedEqualsCold:
    @pytest.mark.parametrize("mode", MODES)
    def test_first_and_repeat_requests_answer_alike(self, served, mode):
        for compiled, database in served:
            cold(compiled)
            first = execute(compiled, database, mode=mode)
            for _ in range(2):
                again = execute(compiled, database, mode=mode)
                assert again == first, compiled.query.name
                assert repr(again.total_cost) == repr(first.total_cost)

    @pytest.mark.parametrize("mode", MODES)
    def test_same_kill_points_and_counters_under_request_budgets(
        self, served, mode, monkeypatch
    ):
        cut = 0
        for compiled, database in served:
            whole, budgets = kill_budgets(compiled, database, mode, monkeypatch)
            assert budgets, compiled.query.name
            for budget in budgets:
                cold(compiled)
                first = capped_run(compiled, database, mode, budget)
                assert first == capped_run(compiled, database, mode, budget)
                assert first[0] == "killed", (compiled.query.name, budget)
                cut += 1
            assert capped_run(compiled, database, mode, 2 * whole.total_cost)[0] == whole
        assert cut > 4 * len(served)


class TestDataChange:
    SQL = (
        "select * from lineitem, orders, part where p_partkey = l_partkey "
        "and l_orderkey = o_orderkey and p_retailprice < 1000"
    )

    def test_another_database_binds_its_own_data(self, schema, pool, database):
        other = Database.generate(schema, tpch_generator_spec(0.003), seed=9)
        for compiled in pool:
            here = execute(compiled, database)
            there = execute(compiled, other)
            record = compiled.bouquet.measured_on(other.fingerprint())
            assert record.bound[0] is other
            cold(compiled)
            assert execute(compiled, other) == there
            assert execute(compiled, database) == here

    def test_in_place_mutation_binds_and_decides_again(self, schema, catalog, monkeypatch):
        from repro.api import compile_bouquet

        data = Database.generate(schema, tpch_generator_spec(0.003), seed=7)
        compiled = compile_bouquet(self.SQL, catalog, config=BouquetConfig())
        execute(compiled, data)
        bound = compiled.bouquet.measured_on(data.fingerprint()).bound
        opened, moved = [], []
        open_, move = BouquetRunner._open, BouquetRunner._move
        monkeypatch.setattr(
            BouquetRunner, "_open", lambda self, q: opened.append(1) or open_(self, q)
        )
        monkeypatch.setattr(
            BouquetRunner, "_move", lambda self, s: moved.append(1) or move(self, s)
        )
        execute(compiled, data)
        assert (opened, moved) == ([], [])  # the repeat is prepared

        data.table("part")["p_retailprice"] *= 0.5
        keys = data.table("orders")["o_orderkey"]
        keys[:] = keys[::-1].copy()
        data.invalidate_fingerprint()
        mutated = execute(compiled, data)
        assert (opened, moved) == ([1], [1])  # a new probed start: decided again
        rebound = compiled.bouquet.measured_on(data.fingerprint()).bound
        assert rebound[2] is not bound[2] and rebound[2]
        assert mutated.result_rows == reference_row_count(data, compiled.query)
        monkeypatch.undo()
        cold(compiled)
        assert execute(compiled, data) == mutated

    def test_statistics_refresh_serves_no_stale_run(self, lab):
        from repro.api import Catalog
        from repro.serve import BouquetServer

        catalog = Catalog(lab.h_schema, statistics=lab.h_stats, database=lab.h_db)
        with BouquetServer(catalog, config=BouquetConfig()) as server:
            first = server.serve(self.SQL)
            before, _ = server.store.lookup(first.key, catalog)
            server.refresh_statistics(lab.h_db.build_statistics(sample_size=900, seed=11))
            again = server.serve(self.SQL)
            after, tier = server.store.lookup(again.key, catalog)
            assert tier == "memory" and after.bouquet is not before.bouquet
            assert again.result == first.result


def test_whole_table_build_sides_bind_the_database_index(pool, database):
    """The pool has hash or NL joins whose build side scans a whole base
    table; each binds the database's own index and columns."""
    shared = 0
    for compiled in pool:
        engine = ExecutionEngine(database)
        for plan_id in compiled.bouquet.plan_ids:
            bound = engine.bind(compiled.query, compiled.bouquet.registry.plan(plan_id))
            for op in bound.ops.values():
                node = op.node
                if not isinstance(node, Join) or node.algo == "inl":
                    continue
                right = node.right
                if isinstance(right, SeqScan) and not right.filter_pids:
                    table, column = op.right_key.split(".")
                    assert op.shared is database.index(table, column)
                    columns = bound.ops[id(right)].columns
                    assert all(
                        np.shares_memory(columns[f"{table}.{name}"], database.table(table)[name])
                        for name in database.table(table)
                        if f"{table}.{name}" in columns
                    )
                    shared += 1
                else:
                    assert op.shared is None
    assert shared
