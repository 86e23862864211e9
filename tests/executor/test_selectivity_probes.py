"""Index-probe starts on real data.

``RealExecutionService.known_selectivities`` measures every base-table
selection dimension through the database's indexes before the first
contour.  What it pins must be the very number the run-time would have
*learned* by executing (§5.2), so a pinned start and an origin start
describe the same point of the ESS — the started run just gets there
without the partial executions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    BouquetConfig,
    BudgetCappedService,
    compile_bouquet,
    execute,
)
from repro.core.runtime import BouquetRunner, ExecutionService
from repro.datagen.database import compare
from repro.ess import ErrorDimension
from repro.executor import ExecutionEngine, RealExecutionService
from repro.obs import MemorySink, Tracer
from repro.query import parse_query
from repro.query.workload import SELECTION_DIM_RANGE, join_dim_maximum


def service_for(compiled, database, tracer=None):
    engine = ExecutionEngine(
        database, cost_model=compiled.config.cost_model_object, tracer=tracer
    )
    return RealExecutionService(compiled.bouquet, engine)


def selection_dim(pred):
    lo, hi = SELECTION_DIM_RANGE
    return ErrorDimension(pred.pid, lo, hi, f"{pred.table}.{pred.column}")


class TestPool:
    def test_pinned_is_what_an_origin_start_learns(self, pool, database, origin_started):
        """Bit for bit: every selectivity a finished spill node reports
        on an origin-started run equals the probe's value."""
        compared = 0
        for compiled in pool:
            pinned = {
                k.pid: k.value
                for k in service_for(compiled, database).known_selectivities().learned
            }
            assert set(pinned) == {dim.pid for dim in compiled.space.dimensions}
            for record in origin_started(compiled, database).executions:
                for learned in record.learned:
                    if learned.exact:
                        assert learned.value == pinned[learned.pid], compiled.query.name
                        compared += 1
        assert compared >= len(pool) // 2

    def test_one_execution_with_the_right_rows(
        self, pool, database, origin_started, expected_rows
    ):
        saved = 0
        for compiled in pool:
            result = execute(compiled, database)
            assert result.completed
            assert result.result_rows == expected_rows(compiled.query)
            # Every dimension of this pool is a base-table selection.
            assert result.execution_count == 1 and result.partial_executions == 0
            assert result.probe_cost > 0
            assert result.total_cost == pytest.approx(
                result.probe_cost + result.executions[0].cost_spent
            )
            saved += result.total_cost < origin_started(compiled, database).total_cost
        # Probes are charged, so a query the origin start answers in its
        # first cheap contour can come out dearer; most come out cheaper.
        assert saved > len(pool) // 2


class TestShapes:
    def test_join_dimension_stays_unknown_and_is_still_learned(self, catalog, eq_query):
        selection = eq_query.selections[0]
        join = eq_query.joins[0]
        hi = join_dim_maximum(catalog.schema, join)
        compiled = compile_bouquet(
            eq_query,
            catalog,
            config=BouquetConfig(resolution=10),
            dimensions=[
                selection_dim(selection),
                ErrorDimension(join.pid, hi / 1000.0, hi, "part x lineitem"),
            ],
        )
        tracer = Tracer(MemorySink())
        service = service_for(compiled, catalog.database, tracer=tracer)
        (known,) = service.known_selectivities().learned
        assert known.pid == selection.pid and known.exact

        result = BouquetRunner(compiled.bouquet, service, tracer=tracer).run()
        assert result.completed
        start = next(
            r["attrs"] for r in tracer.sink.records if r.get("name") == "runtime.qrun"
        )
        assert start["exact"] == [selection.pid]
        assert start["pinned"] == {selection.pid: known.value}
        assert start["probe_cost"] == result.probe_cost > 0
        # Whatever the run learned by executing, it learned about the join.
        learned = {pid for e in result.executions for pid in e.learned_pids}
        assert learned <= {join.pid}
        plan_id = compiled.bouquet.contours[-1].plan_ids[0]
        outcome = service.run_spilled(plan_id, 1e12, frozenset((join.pid,)))
        assert [l.pid for l in outcome.learned if l.exact] == [join.pid]

    def test_two_dimensions_on_one_table_follow_the_chain_rule(
        self, catalog, expected_rows
    ):
        database = catalog.database
        query = parse_query(
            "select * from lineitem, part where p_partkey = l_partkey "
            "and p_retailprice < 1400 and p_size < 20",
            catalog.schema,
        )
        price, size = sorted(query.selections, key=lambda sel: sel.column)
        compiled = compile_bouquet(
            query,
            catalog,
            config=BouquetConfig(resolution=8),
            dimensions=[selection_dim(price), selection_dim(size)],
        )
        first, second = service_for(compiled, database).known_selectivities().learned
        assert (first.pid, second.pid) == (price.pid, size.pid)
        part = database.table("part")
        passes_price = compare(part["p_retailprice"], price.op, price.value)
        passes_both = passes_price & compare(part["p_size"], size.op, size.value)
        rows = passes_price.size
        assert first.value == passes_price.sum() / rows
        assert second.value == passes_both.sum() / passes_price.sum()
        assert first.value * second.value == pytest.approx(passes_both.sum() / rows)

        result = execute(compiled, database)
        assert result.execution_count == 1
        assert result.result_rows == expected_rows(query)

    def test_a_predicate_nothing_passes_is_pinned_at_the_floor(self, catalog):
        query = parse_query(
            "select * from lineitem, part where p_partkey = l_partkey "
            "and p_retailprice < 0",
            catalog.schema,
        )
        compiled = compile_bouquet(query, catalog, config=BouquetConfig(resolution=16))
        (known,) = service_for(compiled, catalog.database).known_selectivities().learned
        assert known.exact and known.value == compiled.space.dimensions[0].lo
        result = execute(compiled, catalog.database)
        assert result.completed and result.result_rows == 0
        assert result.execution_count == 1

    def test_co_located_predicates_touch_only_the_narrowest_range(self, database):
        conditions = [("p_retailprice", "<", 1400.0), ("p_size", "in", (3.0, 7.0, 7.0))]
        count = database.count_rows("part", conditions)
        part = database.table("part")
        masks = [compare(part[column], op, value) for column, op, value in conditions]
        assert count.rows == int(np.logical_and(*masks).sum())
        assert count.descents == 3  # one range, plus one per distinct listed value
        assert count.fetched == min(int(mask.sum()) for mask in masks) < part["p_size"].size
        lone = database.count_rows("part", conditions[:1])
        assert (lone.rows, lone.descents, lone.fetched) == (int(masks[0].sum()), 1, 0)
        assert database.count_rows("part", []).rows == part["p_size"].size


class TestWrappers:
    def test_budget_cap_and_inner_proxies_forward(self, pool, database):
        compiled = pool[0]
        bare = service_for(compiled, database).known_selectivities()
        assert bare.learned and bare.cost > 0

        capped = BudgetCappedService(service_for(compiled, database), budget=1e9)
        assert capped.known_selectivities() == bare
        assert capped.spent == bare.cost

        class Proxy(ExecutionService):
            """Forwards executions only, as a timing wrapper would."""

            def __init__(self, inner):
                self.inner = inner

            def run_full(self, plan_id, budget):
                return self.inner.run_full(plan_id, budget)

            def run_spilled(self, plan_id, budget, unlearned_pids):
                return self.inner.run_spilled(plan_id, budget, unlearned_pids)

        proxied = Proxy(Proxy(service_for(compiled, database)))
        assert proxied.known_selectivities() == bare
        via_proxy = BouquetRunner(compiled.bouquet, proxied).run()
        assert via_proxy.executions == execute(compiled, database).executions

    def test_probes_count_against_the_request_budget(self, pool, database):
        from repro.exceptions import BudgetExceeded

        compiled = pool[0]
        probe_cost = service_for(compiled, database).known_selectivities().cost
        with pytest.raises(BudgetExceeded):
            execute(compiled, database, budget=probe_cost / 2)


class TestDatasetRecord:
    """The probed start is a fact about (bouquet, dataset): measured on
    the first request, kept in the bouquet's record until the data
    changes, and still charged and counted on every request."""

    def test_repeated_requests_run_identically(self, pool, database):
        for compiled in pool:
            compiled.bouquet.measured_on("another dataset")  # the record starts over
            cold = execute(compiled, database)
            assert compiled.bouquet.measured_on(database.fingerprint()).known is not None
            assert [execute(compiled, database) for _ in range(2)] == [cold, cold]

    def test_every_request_is_charged_and_counts_its_probes(self, pool, database):
        from repro.exceptions import BudgetExceeded

        compiled = pool[0]
        execute(compiled, database)
        _, known = compiled.bouquet.measured_on(database.fingerprint()).known
        assert known.learned and known.cost > 0
        for _ in range(2):
            tracer = Tracer(MemorySink())
            capped = BudgetCappedService(service_for(compiled, database, tracer), budget=1e9)
            result = BouquetRunner(compiled.bouquet, capped, tracer=tracer).run()
            assert result.completed and result.probe_cost == known.cost
            assert capped.spent == pytest.approx(result.total_cost, rel=1e-12)
            assert tracer.counters["executor.selectivity_probes"] == len(known.learned)
        with pytest.raises(BudgetExceeded):
            execute(compiled, database, budget=known.cost / 2)

    def test_in_place_mutation_measures_again(self, schema, catalog):
        from repro.catalog import tpch_generator_spec
        from repro.datagen import Database
        from tests.conftest import SCALE

        data = Database.generate(schema, tpch_generator_spec(SCALE), seed=7)
        compiled = compile_bouquet(
            "select * from lineitem, part where p_partkey = l_partkey "
            "and p_retailprice < 1000",
            catalog,
            config=BouquetConfig(),
        )
        (dim,) = [d for d in compiled.space.dimensions if d.pid.startswith("sel:")]

        def pinned():
            (value,) = [
                k.value
                for k in service_for(compiled, data).known_selectivities().learned
                if k.pid == dim.pid
            ]
            return value

        price = data.table("part")["p_retailprice"]
        before = pinned()
        assert before == max(np.count_nonzero(price < 1000) / price.size, dim.lo)
        price *= 0.9
        assert pinned() == before  # mutated, not yet invalidated: the record stands
        data.invalidate_fingerprint()
        after = pinned()
        assert after == max(np.count_nonzero(price < 1000) / price.size, dim.lo) != before

    def test_concurrent_requests_share_the_record_and_opening(self, pool, database):
        """Eight threads over four bouquets, each request racing others to
        take the probes and build the opening: every answer is the
        serial one."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        bouquets = pool[:4]
        serial = [execute(compiled, database) for compiled in bouquets]
        for compiled in bouquets:
            compiled.bouquet.measured_on("another dataset")
            compiled.bouquet.opening("another start", lambda: None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as workers:
                futures = [
                    workers.submit(execute, bouquets[k % 4], database) for k in range(64)
                ]
                answers = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert answers == [serial[k % 4] for k in range(64)]
