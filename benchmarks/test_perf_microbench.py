"""Performance microbenchmarks for the hot kernels.

Unlike the experiment benches (one-shot regenerations of paper tables),
these run multiple rounds and exist to catch performance regressions in
the four kernels everything else is built from: a single optimizer call,
abstract plan costing, the vectorized grid cost field, and engine
execution throughput.
"""

import itertools
import json

import numpy as np
import pytest

from repro.api import BouquetConfig, CompiledBouquet, execute
from repro.core.simulation import basic_cost_field, simulate_at
from repro.executor import ExecutionEngine
from repro.obs import MemorySink, Tracer
from repro.optimizer import actual_selectivities, cost_plan

#: The §4.2 canned workload: a handful of distinct SPJ shapes over TPC-H.
CANNED_WORKLOAD = [
    "select * from lineitem, orders, part "
    "where p_partkey = l_partkey and l_orderkey = o_orderkey "
    "and p_retailprice < 1000",
    "select * from lineitem, orders "
    "where l_orderkey = o_orderkey and o_totalprice < 150000",
    "select count(*) from lineitem, part "
    "where p_partkey = l_partkey and p_retailprice < 1200 "
    "group by p_brand",
]


@pytest.fixture(scope="module")
def env(lab):
    ql = lab.build("3D_H_Q5")
    eq = lab.build("EQ")
    return lab, ql, eq


def test_perf_optimizer_call(benchmark, env):
    """One DP optimization of a 6-relation chain query."""
    lab, ql, _ = env
    query = ql.workload.query
    assignment = ql.space.assignment_at((8, 8, 8))
    optimizer = lab.h_optimizer

    result = benchmark(lambda: optimizer.optimize(query, assignment=assignment))
    assert result.cost > 0


def test_perf_abstract_plan_costing(benchmark, env):
    """Costing one plan at one selectivity point."""
    lab, ql, _ = env
    plan = ql.diagram.registry.plan(ql.diagram.posp_plan_ids[0])
    assignment = ql.space.assignment_at((4, 4, 4))

    est = benchmark(
        lambda: cost_plan(plan, lab.h_schema, lab.h_optimizer.cost_model, assignment)
    )
    assert est.cost > 0


def test_perf_vectorized_cost_field(benchmark, env):
    """One plan costed over the whole 16^3 ESS grid in a single pass."""
    lab, ql, _ = env
    cache = ql.diagram.cache
    plan_id = ql.diagram.posp_plan_ids[0]

    def kernel():
        cache.invalidate(plan_id)  # defeat the memo
        return cache.cost_array(plan_id)

    array = benchmark(kernel)
    assert array.shape == ql.space.shape


def test_perf_basic_field_sweep(benchmark, env):
    """The full basic-bouquet cost field over the 3D grid."""
    _, ql, _ = env
    field = benchmark(lambda: basic_cost_field(ql.bouquet))
    assert field.shape == ql.space.shape


def test_perf_optimized_simulation(benchmark, env):
    """One optimized-mode bouquet discovery (cost-model world)."""
    _, ql, _ = env
    location = tuple(s - 2 for s in ql.space.shape)
    result = benchmark(lambda: simulate_at(ql.bouquet, location, "optimized"))
    assert result.completed


def test_perf_engine_hash_join(benchmark, env):
    """Real execution of the EQ hash-join pipeline (~18k-row lineitem)."""
    lab, _, eq = env
    query = eq.workload.query
    truth = actual_selectivities(query, lab.h_db)
    plan = lab.h_optimizer.optimize(query, assignment=truth).plan
    engine = ExecutionEngine(lab.h_db)

    result = benchmark(lambda: engine.execute(query, plan))
    assert result.completed


def test_perf_warm_request_builds_no_index(benchmark, env, monkeypatch):
    """A served request after the first: every B-tree it descends already
    exists, and so does every index over a join's build side.
    Count-based guard — the second ``api.execute`` of one compiled
    bouquet on one database builds no index over a base column and calls
    ``ColumnIndex.build`` zero times (its build sides are the first
    request's, replayed); the timing rounds that follow are the warm
    request."""
    from repro.datagen import ColumnIndex

    lab, _, eq = env
    database = lab.h_db
    compiled = CompiledBouquet(eq.workload.query, eq.bouquet, BouquetConfig())
    first = execute(compiled, database)

    built = []
    build = ColumnIndex.build

    def recording_build(keys):
        built.append(keys.size)
        return build(keys)

    builds = database.index_builds
    tracer = Tracer(MemorySink())
    monkeypatch.setattr(ColumnIndex, "build", staticmethod(recording_build))
    second = execute(compiled, database, tracer=tracer)
    monkeypatch.undo()

    assert database.index_builds == builds
    assert "executor.index_builds" not in tracer.counters
    # The B-tree a warm request descends is the selectivity probe's.
    assert tracer.counters["executor.selectivity_probes"] > 0
    assert built == []
    assert second.total_cost == first.total_cost

    result = benchmark(lambda: execute(compiled, database))
    assert result.completed and database.index_builds == builds


def test_perf_warm_request_is_one_execution(benchmark, env, monkeypatch):
    """A served canned query after the first: the driver starts from the
    index probes, so the request is exactly one plan execution.
    Count-based guard — each warm ``api.execute`` runs one plan to
    completion, builds no index, and pins its selection by binary search
    alone: the probe makes no predicate mask at all (the scans' masks go
    through ``executor.arrays``, which this does not count)."""
    from repro.api import Catalog, compile_bouquet
    from repro.datagen import database as database_module

    lab, _, _ = env
    database = lab.h_db
    catalog = Catalog(lab.h_schema, statistics=lab.h_stats, database=database)
    pool = [
        compile_bouquet(sql, catalog, config=BouquetConfig()) for sql in CANNED_WORKLOAD
    ]
    for compiled in pool:
        execute(compiled, database)  # the cold request builds the indexes

    probe_masks = []
    compare = database_module.compare

    def counting_compare(values, op, value):
        probe_masks.append(values.size)
        return compare(values, op, value)

    builds = database.index_builds
    tracer = Tracer(MemorySink())
    monkeypatch.setattr(database_module, "compare", counting_compare)
    warm = [execute(compiled, database, tracer=tracer) for compiled in pool]
    monkeypatch.undo()

    for result in warm:
        assert result.completed
        assert result.execution_count == 1 and result.partial_executions == 0
    assert tracer.counters["engine.executions"] == len(pool)
    assert tracer.counters["executor.selectivity_probes"] == len(pool)
    assert tracer.counters["core.pinned_dimensions"] == len(pool)
    assert database.index_builds == builds
    assert "executor.index_builds" not in tracer.counters
    assert probe_masks == []

    results = benchmark(lambda: [execute(compiled, database) for compiled in pool])
    assert all(result.execution_count == 1 for result in results)


def test_perf_dense_probes_of_the_canned_pool(benchmark, env):
    """Join keys are addressed, not searched.  Count-based guard — every
    probe of the canned workload's FK→PK joins gathers its matches from a
    direct-address table: ``executor.dense_probes`` > 0 and
    ``executor.searched_probes`` 0 over the three queries."""
    from repro.api import Catalog, compile_bouquet

    lab, _, _ = env
    database = lab.h_db
    catalog = Catalog(lab.h_schema, statistics=lab.h_stats, database=database)
    pool = [
        compile_bouquet(sql, catalog, config=BouquetConfig()) for sql in CANNED_WORKLOAD
    ]
    tracer = Tracer(MemorySink())
    for compiled in pool:
        assert execute(compiled, database, tracer=tracer).completed
    assert tracer.counters["executor.dense_probes"] > 0
    assert tracer.counters.get("executor.searched_probes", 0) == 0

    results = benchmark(lambda: [execute(compiled, database) for compiled in pool])
    assert all(result.completed for result in results)


def test_perf_canned_group_by_is_addressed(benchmark, env, monkeypatch):
    """Group-by keys are addressed, not sorted, and grouped once.
    Count-based guard — serving the canned ``group by p_brand`` text
    (cold, then from memory) counts ``executor.dense_groups`` > 0 and
    ``executor.sorted_groups`` 0, and makes one ``group_counts`` call per
    aggregate that runs to its end, however many batches it reads."""
    from repro.api import Catalog
    from repro.executor import engine
    from repro.executor.instrumentation import Instrumentation
    from repro.optimizer import Aggregate
    from repro.serve import BouquetServer

    lab, _, _ = env
    sql = next(text for text in CANNED_WORKLOAD if "group by" in text)
    catalog = Catalog(lab.h_schema, statistics=lab.h_stats, database=lab.h_db)
    tracer = Tracer(MemorySink())
    calls, finished = [], []
    group_counts, mark_finished = engine.group_counts, Instrumentation.mark_finished

    def finishing(inst, node):
        if isinstance(node, Aggregate):
            finished.append(node)
        return mark_finished(inst, node)

    monkeypatch.setattr(engine, "group_counts", lambda *a: calls.append(a) or group_counts(*a))
    monkeypatch.setattr(Instrumentation, "mark_finished", finishing)
    with BouquetServer(catalog, config=BouquetConfig(), tracer=tracer) as server:
        responses = [server.serve(sql) for _ in range(2)]
        monkeypatch.undo()

        assert [r.status for r in responses] == ["ok", "ok"]
        assert responses[1].cache == "memory"
        assert tracer.counters["executor.dense_groups"] > 0
        assert tracer.counters.get("executor.sorted_groups", 0) == 0
        assert finished and len(calls) == len(finished)
        results = benchmark(lambda: server.serve(sql))
        assert results.status == "ok"


def test_perf_repeat_request_is_prepared(benchmark, env, monkeypatch):
    """A repeated request runs only the driver and the executor.
    Count-based guard — the second round of the canned texts on one
    ``BouquetServer`` parses no SQL and takes no count through the
    indexes (the parsed query and key are the server's, the counts the
    database's), and answers as the first round did."""
    from repro.api import Catalog
    from repro.datagen import Database
    from repro.serve import BouquetServer
    from repro.serve import server as server_module

    lab, _, _ = env
    catalog = Catalog(lab.h_schema, statistics=lab.h_stats, database=lab.h_db)
    with BouquetServer(catalog, config=BouquetConfig()) as server:
        first = [server.serve(sql) for sql in CANNED_WORKLOAD]
        calls = []
        parse, count = server_module.parse_query, Database._count_rows
        monkeypatch.setattr(
            server_module, "parse_query", lambda *a: calls.append("parse") or parse(*a)
        )
        monkeypatch.setattr(
            Database, "_count_rows", lambda *a: calls.append("count") or count(*a)
        )
        second = [server.serve(sql) for sql in CANNED_WORKLOAD]
        monkeypatch.undo()

        def answers(responses):
            return [(r.status, r.rows, r.total_cost, r.key) for r in responses]

        assert calls == []
        assert [r.cache for r in second] == ["memory"] * len(CANNED_WORKLOAD)
        assert answers(second) == answers(first)
        results = benchmark(lambda: [server.serve(sql) for sql in CANNED_WORKLOAD])
        assert all(result.status == "ok" for result in results)


def test_perf_served_hit_builds_no_axis_tables(benchmark, env, monkeypatch):
    """A served hit never asks AxisPlans.  Count-based guard — after the
    cold round over the canned texts, a second round on one
    ``BouquetServer`` builds no AxisPlans gather table (ray ends,
    covering owners) and makes no AxisPlans lookup: every dimension is
    pinned by the index probes, so a request is the first-quadrant walk
    up the contours and the endgame's one execution.  Building every
    table of a bouquet costs 0.5–4 ms, more than the request."""
    from repro.api import Catalog
    from repro.core import runtime
    from repro.core.contours import AxisTables
    from repro.serve import BouquetServer

    lab, _, _ = env
    catalog = Catalog(lab.h_schema, statistics=lab.h_stats, database=lab.h_db)
    with BouquetServer(catalog, config=BouquetConfig()) as server:
        first = [server.serve(sql) for sql in CANNED_WORKLOAD]
        calls = []
        build, lookup = AxisTables._build, runtime.axis_plans
        monkeypatch.setattr(
            AxisTables, "_build", lambda self: calls.append("build") or build(self)
        )
        monkeypatch.setattr(runtime, "axis_plans", lambda *a: calls.append("lookup") or lookup(*a))
        second = [server.serve(sql) for sql in CANNED_WORKLOAD]
        monkeypatch.undo()

        assert calls == []
        assert [r.cache for r in second] == ["memory"] * len(CANNED_WORKLOAD)
        assert [r.total_cost for r in second] == [r.total_cost for r in first]
        results = benchmark(lambda: [server.serve(sql) for sql in CANNED_WORKLOAD])
        assert all(result.status == "ok" for result in results)


def test_perf_served_hit_reuses_its_opening(benchmark, env, monkeypatch):
    """A served hit pays only for its execution.  Count-based guard —
    after the cold round over the canned texts, a second round on one
    ``BouquetServer`` takes no count through the indexes (the probed
    start is the bouquet's record for this dataset), costs no plan node
    (the start point's costing context is the bouquet's opening), and
    tests no first-quadrant dominance: the opening's first move names
    the endgame's one execution, which answers."""
    from repro.api import Catalog
    from repro.core import runtime
    from repro.datagen import Database
    from repro.optimizer.plans import PlanNode
    from repro.serve import BouquetServer

    lab, _, _ = env
    catalog = Catalog(lab.h_schema, statistics=lab.h_stats, database=lab.h_db)
    with BouquetServer(catalog, config=BouquetConfig()) as server:
        first = [server.serve(sql) for sql in CANNED_WORKLOAD]
        calls = []
        count, estimate, dominating = Database.count_rows, PlanNode.estimate, runtime.dominating

        def costing(node, ctx):
            if id(node) not in ctx._memo:
                calls.append("cost")
            return estimate(node, ctx)

        monkeypatch.setattr(Database, "count_rows", lambda *a: calls.append("count") or count(*a))
        monkeypatch.setattr(PlanNode, "estimate", costing)
        monkeypatch.setattr(
            runtime, "dominating", lambda *a: calls.append("dominating") or dominating(*a)
        )
        second = [server.serve(sql) for sql in CANNED_WORKLOAD]
        monkeypatch.undo()

        assert calls == []
        assert [r.cache for r in second] == ["memory"] * len(CANNED_WORKLOAD)
        assert [(r.rows, r.total_cost) for r in second] == [(r.rows, r.total_cost) for r in first]
        assert all(len(r.result.executions) == 1 for r in second)
        results = benchmark(lambda: [server.serve(sql) for sql in CANNED_WORKLOAD])
        assert all(result.status == "ok" for result in results)


def test_perf_repeat_hit_is_prepared(benchmark, env, monkeypatch):
    """A repeated hit runs its prepared run.  Count-based guard — after
    the cold round over the canned texts, a second round on one
    ``BouquetServer`` decides nothing (no ``dominating`` and no
    ``endgame`` call: the first move is the bouquet's) and builds no
    index over a whole base table (a build side that scans one binds the
    database's index over its key), and answers as the first round did."""
    from repro.api import Catalog
    from repro.core import runtime
    from repro.datagen import ColumnIndex
    from repro.serve import BouquetServer

    lab, _, _ = env
    database = lab.h_db
    catalog = Catalog(lab.h_schema, statistics=lab.h_stats, database=database)
    base_columns = [
        array for table in database.schema.table_names for array in database.table(table).values()
    ]

    def whole_column(keys):
        return any(
            keys.size == array.size and keys.dtype == array.dtype and np.array_equal(keys, array)
            for array in base_columns
        )

    with BouquetServer(catalog, config=BouquetConfig()) as server:
        first = [server.serve(sql) for sql in CANNED_WORKLOAD]
        calls = []
        build, dominating, endgame = ColumnIndex.build, runtime.dominating, runtime.endgame

        def recording_build(keys):
            if whole_column(keys):
                calls.append("whole-table build")
            return build(keys)

        monkeypatch.setattr(ColumnIndex, "build", staticmethod(recording_build))
        monkeypatch.setattr(
            runtime, "dominating", lambda *a: calls.append("dominating") or dominating(*a)
        )
        monkeypatch.setattr(runtime, "endgame", lambda *a: calls.append("endgame") or endgame(*a))
        second = [server.serve(sql) for sql in CANNED_WORKLOAD]
        monkeypatch.undo()

        assert calls == []
        assert [r.cache for r in second] == ["memory"] * len(CANNED_WORKLOAD)
        assert [(r.rows, r.total_cost) for r in second] == [(r.rows, r.total_cost) for r in first]
        results = benchmark(lambda: [server.serve(sql) for sql in CANNED_WORKLOAD])
        assert all(result.status == "ok" for result in results)


def test_perf_repeat_hit_replays_its_build_sides(benchmark, env):
    """A repeated hit builds no build side.  Count-based guard — serving
    a canned text whose plan has a filtered build side a second time
    counts ``executor.build_replays`` > 0 and ``executor.builds`` 0: the
    first request's bound plan kept each build side, and this one
    replays it."""
    from repro.api import Catalog
    from repro.optimizer import Join, SeqScan
    from repro.serve import BouquetServer

    lab, _, _ = env
    catalog = Catalog(lab.h_schema, statistics=lab.h_stats, database=lab.h_db)
    tracer = Tracer(MemorySink())
    with BouquetServer(catalog, config=BouquetConfig(), tracer=tracer) as server:
        sql = CANNED_WORKLOAD[0]
        first = server.serve(sql)
        compiled, _ = server.store.lookup(first.key, catalog)
        plan = compiled.bouquet.registry.plan(first.result.executions[-1].plan_id)
        filtered = [
            node
            for node in plan.postorder()
            if isinstance(node, Join)
            and node.algo != "inl"
            and not (isinstance(node.right, SeqScan) and not node.right.filter_pids)
        ]
        assert filtered, "the canned plan has a filtered build side"
        counters = dict(tracer.counters)
        second = server.serve(sql)
        delta = {
            name: tracer.counters.get(name, 0) - counters.get(name, 0)
            for name in ("executor.builds", "executor.build_replays")
        }
        assert second.cache == "memory"
        assert (second.rows, second.total_cost) == (first.rows, first.total_cost)
        assert delta["executor.build_replays"] > 0 and delta["executor.builds"] == 0
        results = benchmark(lambda: server.serve(sql))
        assert results.status == "ok"


def _counting_plans(monkeypatch, calls):
    """Append ``"plan"`` to ``calls`` on every scalar or slab DP call."""
    from repro.optimizer.optimizer import Optimizer

    optimize, slab = Optimizer.optimize, Optimizer.optimize_slab
    monkeypatch.setattr(
        Optimizer, "optimize", lambda *a: calls.append("plan") or optimize(*a)
    )
    monkeypatch.setattr(
        Optimizer, "optimize_slab", lambda *a: calls.append("plan") or slab(*a)
    )


def test_perf_statistics_refresh_plans_nothing(benchmark, env, monkeypatch):
    """A statistics refresh carries artifacts over or drops them; it
    never plans.  Count-based guard — after the canned texts are cached
    on one ``BouquetServer``, refreshing to statistics drawn from another
    sample patches all of them (the base is the data's, so no compile
    input moves) with zero DP calls, and the next round is served from
    memory with the same answers."""
    from repro.api import Catalog
    from repro.serve import BouquetServer

    lab, _, _ = env
    catalog = Catalog(lab.h_schema, statistics=lab.h_stats, database=lab.h_db)
    tracer = Tracer(MemorySink())
    with BouquetServer(catalog, config=BouquetConfig(), tracer=tracer) as server:
        first = [server.serve(sql) for sql in CANNED_WORKLOAD]
        resampled = lab.h_db.build_statistics(sample_size=900, seed=11)
        calls = []
        _counting_plans(monkeypatch, calls)
        server.refresh_statistics(resampled)
        monkeypatch.undo()

        assert calls == []
        assert tracer.counters["serve.cache.patched"] == len(CANNED_WORKLOAD)
        second = [server.serve(sql) for sql in CANNED_WORKLOAD]
        assert [r.cache for r in second] == ["memory"] * len(CANNED_WORKLOAD)
        assert [(r.rows, r.total_cost) for r in second] == [
            (r.rows, r.total_cost) for r in first
        ]
        worlds = itertools.cycle([lab.h_stats, resampled])
        benchmark(lambda: server.refresh_statistics(next(worlds)))


def test_perf_statistics_refresh_opens_no_envelope(benchmark, env, tmp_path, monkeypatch):
    """A statistics refresh reads no disk envelope.  Count-based guard —
    the canned texts are served over a disk store whose memory tier holds
    fewer of them than were served, so one artifact is disk-only; the
    refresh then decodes 0 envelopes and writes exactly the
    ``serve.cache.patched`` ones it carried over."""
    import json
    from types import SimpleNamespace

    from repro.api import Catalog
    from repro.serve import BouquetArtifactStore, BouquetServer
    from repro.serve import cache as cache_module

    lab, _, _ = env
    catalog = Catalog(lab.h_schema, statistics=lab.h_stats, database=lab.h_db)
    tracer = Tracer(MemorySink())
    capacity = len(CANNED_WORKLOAD) - 1
    store = BouquetArtifactStore(root=str(tmp_path), capacity=capacity, tracer=tracer)
    with BouquetServer(catalog, config=BouquetConfig(), store=store, tracer=tracer) as server:
        tiers = [server.serve(sql).cache for sql in CANNED_WORKLOAD]
        assert tiers == ["compiled"] * len(CANNED_WORKLOAD)
        resampled = lab.h_db.build_statistics(sample_size=900, seed=11)
        calls = []
        monkeypatch.setattr(
            cache_module,
            "json",
            SimpleNamespace(
                load=lambda *a: calls.append("decode") or json.load(*a),
                dumps=lambda *a: calls.append("write") or json.dumps(*a),
            ),
        )
        server.refresh_statistics(resampled)

        patched = tracer.counters["serve.cache.patched"]
        assert patched == capacity
        assert calls == ["write"] * patched
        worlds = itertools.cycle([lab.h_stats, resampled])
        benchmark(lambda: server.refresh_statistics(next(worlds)))


def test_perf_moved_base_rebind_plans_nothing_before_its_compile(
    benchmark, env, monkeypatch
):
    """A rebind that cannot carry the template over refuses before any
    planning.  Count-based guard — a second instance of a cached
    template whose non-dimension constant moved its base selectivity
    falls back (``base-moved``), and the first DP call of the request is
    its own compile's."""
    from repro.api import Catalog
    from repro.serve import BouquetServer
    from repro.serve import server as server_module

    lab, _, _ = env
    catalog = Catalog(lab.h_schema, statistics=lab.h_stats, database=lab.h_db)
    template = (
        "select * from lineitem, orders where l_orderkey = o_orderkey "
        "and o_totalprice < {price} and l_quantity = {quantity}"
    )
    exemplar = template.format(price=150000, quantity=7)
    moved = template.format(price=200000, quantity=9)
    tracer = Tracer(MemorySink())
    with BouquetServer(catalog, config=BouquetConfig(), tracer=tracer) as server:
        assert server.serve(exemplar).cache == "compiled"
        calls = []
        _counting_plans(monkeypatch, calls)
        compile_pipeline = server_module._compile_pipeline
        monkeypatch.setattr(
            server_module,
            "_compile_pipeline",
            lambda *a, **k: calls.append("compile") or compile_pipeline(*a, **k),
        )
        served = server.serve(moved)
        monkeypatch.undo()

        assert served.cache == "compiled"
        assert tracer.counters["serve.template.fallbacks"] == 1
        assert calls[0] == "compile" and set(calls[1:]) == {"plan"}
        (event,) = tracer.sink.events("serve.template.fallback")
        assert event["attrs"]["reason"] == "base-moved"
        results = benchmark(lambda: server.serve(moved))
        assert results.status == "ok"


def _table2_compiler(lab):
    """``compile_entry(name, tracer=None)`` for the Table 2 queries of ``lab``."""
    from repro.api import Catalog, compile_bouquet

    catalogs = {
        "tpch": Catalog(lab.h_schema, statistics=lab.h_stats, database=lab.h_db),
        "tpcds": Catalog(lab.ds_schema, statistics=lab.ds_stats, database=lab.ds_db),
    }

    def compile_entry(name, tracer=None):
        entry = lab.workload[name]
        catalog = catalogs["tpcds" if "DS" in name else "tpch"]
        return compile_bouquet(
            entry.query, catalog, dimensions=entry.dimensions(), tracer=tracer
        )

    return compile_entry


def test_perf_compile_builds_no_cost_grid(benchmark, env):
    """The anorexic reduction costs the POSP plans at the contour
    locations only.  Count-based guard — compiling each Table 2 query
    books no ``ess.cost_array_builds`` (no plan's whole-grid cost array
    is built) and leaves the bouquet's ``cost_cache`` empty; the whole-grid
    consumers (sweep, validation, NAT/SEER) build what they ask for."""
    from repro.query.workload import TABLE2_NAMES

    lab, _, _ = env
    compile_entry = _table2_compiler(lab)
    for name in TABLE2_NAMES:
        tracer = Tracer(MemorySink())
        compiled = compile_entry(name, tracer)
        assert tracer.counters.get("ess.cost_array_builds", 0) == 0, name
        assert tracer.sink.events("ess.swallow"), name
        assert len(compiled.bouquet.cost_cache) == 0, name
    compiled = benchmark(lambda: compile_entry("3D_H_Q5"))
    assert len(compiled.bouquet.cost_cache) == 0


def test_perf_envelope_writes_each_subplan_once(benchmark, env):
    """An artifact is packed, not printed.  Count-based guard — for each
    Table 2 compile the payload's node table has one row per distinct
    sub-plan (signature) over the stored plans' post-orders, and both
    diagram arrays are strings (base64 bytes), not lists of numbers."""
    from repro.query.workload import TABLE2_NAMES

    lab, _, _ = env
    compile_entry = _table2_compiler(lab)
    for name in TABLE2_NAMES:
        compiled = compile_entry(name)
        payload = compiled.to_dict()["bouquet"]
        registry = compiled.bouquet.registry
        distinct = {
            node.canonical_signature()
            for pid, _ in payload["plans"]
            for node in registry.plan(pid).postorder()
        }
        assert len(payload["nodes"]) == len(distinct), name
        assert isinstance(payload["diagram_plan_ids"], str), name
        assert isinstance(payload["diagram_costs"], str), name
    compiled = compile_entry("4D_H_Q8")
    text = benchmark(lambda: json.dumps(compiled.to_dict()))
    assert text


@pytest.mark.parametrize("name, offered", [("3D_H_Q5", 212), ("4D_H_Q8", 669)])
def test_perf_grid_compile_is_one_dp(benchmark, env, monkeypatch, name, offered):
    """A whole-grid compile costs one DP's worth of candidates.
    Count-based guard — the slab kernel offers exactly the candidates the
    scalar DP (``tests/conftest.py::scalar_optimize``) offers at ONE
    location (access paths + join candidates),
    whatever the grid's resolution, and leaves nothing in the slab
    context's memo beyond nodes of the plans it returns."""
    from repro.batchopt import kernel
    from repro.ess import SelectivitySpace
    from repro.optimizer import Optimizer
    from repro.optimizer.joinorder import JoinEnumerator
    from repro.optimizer.plans import CostContext
    from tests.conftest import scalar_optimize

    lab, _, _ = env
    entry = lab.workload[name]
    base = actual_selectivities(entry.query, lab.h_db)

    def fresh():
        return Optimizer(lab.h_schema, lab.h_stats)

    counts = {"scalar": 0, "slab": 0}
    join_candidates = JoinEnumerator.join_candidates
    offer = kernel._FrontierBuilder.offer
    for_slab = CostContext.for_slab
    contexts = []

    def counting_candidates(self, *args):
        plans = join_candidates(self, *args)
        counts["scalar"] += len(plans)
        return plans

    def counting_offer(self, plan, est):
        counts["slab"] += 1
        return offer(self, plan, est)

    def recording_for_slab(*args):
        contexts.append(for_slab(*args))
        return contexts[-1]

    space = SelectivitySpace(entry.query, entry.dimensions(), 3, base)
    monkeypatch.setattr(JoinEnumerator, "join_candidates", counting_candidates)
    scalar_optimize(fresh(), entry.query, space.assignment_at(space.origin))
    enumerator = JoinEnumerator(entry.query, lab.h_schema)
    counts["scalar"] += sum(
        len(enumerator.access_path_candidates(table)) for table in enumerator.tables
    )
    monkeypatch.undo()
    assert counts["scalar"] == offered

    monkeypatch.setattr(kernel._FrontierBuilder, "offer", counting_offer)
    monkeypatch.setattr(CostContext, "for_slab", recording_for_slab)
    for resolution in (3, 6):
        space = SelectivitySpace(entry.query, entry.dimensions(), resolution, base)
        counts["slab"] = 0
        choice, _ = fresh().optimize_slab(entry.query, *space.grid_columns(0, resolution))
        assert counts["slab"] == offered
        (ctx,) = contexts
        contexts.clear()
        returned = {id(node) for plan in choice.plans for node in plan.postorder()}
        assert len(ctx._memo) <= len(returned)
    monkeypatch.undo()

    choice, _ = benchmark(
        lambda: fresh().optimize_slab(entry.query, *space.slab_columns(np.arange(space.size)))
    )
    assert len(choice) == space.size


def _frontier_census(monkeypatch):
    """Every DP entry the kernel builds: ``(cost, rows, winner)``."""
    from repro.batchopt import kernel

    built = []
    finish = kernel._FrontierBuilder.finish

    def recording_finish(self):
        frontier = finish(self)
        built.append((frontier.best.cost, frontier.best.rows, frontier.winner))
        return frontier

    monkeypatch.setattr(kernel._FrontierBuilder, "finish", recording_finish)
    return built


#: Cost elements of the DP entries of a whole-grid ``4D_H_Q8`` compile at
#: resolution 6: 1,296 locations, 44 entries (8 tables, 36 joined
#: subsets).  Each entry is held at the shape of the grid axes its
#: subset's predicates read; with every entry spread over the slab they
#: were 44 x 1,296 = 57,024.
GRID_DP_COST_ELEMENTS = 10494


def test_perf_grid_dp_frontier_elements(benchmark, env, monkeypatch):
    """A DP entry is as large as the predicates it reads.  Count-based
    guard — the cost arrays of a whole-grid ``4D_H_Q8`` compile at
    resolution 6 hold at most ``GRID_DP_COST_ELEMENTS`` elements, under
    a fifth of a slab per entry."""
    from repro.ess import SelectivitySpace
    from repro.optimizer import Optimizer

    lab, _, _ = env
    entry = lab.workload["4D_H_Q8"]
    base = actual_selectivities(entry.query, lab.h_db)
    space = SelectivitySpace(entry.query, entry.dimensions(), 6, base)
    built = _frontier_census(monkeypatch)
    Optimizer(lab.h_schema, lab.h_stats).optimize_slab(
        entry.query, *space.grid_columns(0, 6)
    )
    elements = sum(np.size(cost) for cost, _, _ in built)
    assert len(built) == 44 and elements <= GRID_DP_COST_ELEMENTS
    monkeypatch.undo()
    benchmark(
        lambda: Optimizer(lab.h_schema, lab.h_stats).optimize_slab(
            entry.query, *space.grid_columns(0, 6)
        )
    )


def test_perf_one_location_optimize_builds_no_frontier_array(benchmark, env, monkeypatch):
    """``optimize`` is the DP over a one-location slab.  Count-based
    guard — at each Table 2 query's actual selectivities, no DP entry it
    builds holds an array: every cost, row count and back-pointer is a
    python scalar."""
    from repro.optimizer import Optimizer
    from repro.query.workload import TABLE2_NAMES

    lab, ql, _ = env
    built = _frontier_census(monkeypatch)
    for name in TABLE2_NAMES:
        entry = lab.workload[name]
        optimizer, database = lab._env_for(name)
        assignment = actual_selectivities(entry.query, database)
        Optimizer(optimizer.schema, optimizer.statistics).optimize(entry.query, assignment)
    assert built and not any(
        isinstance(value, np.ndarray) for entry in built for value in entry
    )
    monkeypatch.undo()
    assignment = ql.space.assignment_at((4, 4, 4))
    benchmark(lambda: lab.h_optimizer.optimize(ql.workload.query, assignment=assignment))


def test_perf_spill_evaluations_of_the_campaign_pool(benchmark):
    """A spilled run's reach is searched, not bisected.  Count-based
    guard — one pass over the ledger's 31 ``eval_campaign`` queries
    evaluates spill nodes' own formulas at most 1,300 times (802 today;
    the 40-step loops made 5,748), the bound tier-1 holds in
    ``tests/sweep/test_sweep_engine.py``."""
    from tests.conftest import campaign_pool_counters

    counters = benchmark(campaign_pool_counters)
    assert counters["sweep.spill_formula_evaluations"] <= 1300


def test_perf_sweep_steps_of_the_campaign_pool(benchmark):
    """The sweep advances every location in one array state.  Count-based
    guard — one pass over the ledger's 31 ``eval_campaign`` queries takes
    315 (contour, spills taken on it) rounds, where the cohort engine
    took 498 cohort steps and finished 402 locations through the scalar
    runner."""
    from tests.conftest import campaign_pool_counters

    counters = benchmark.pedantic(campaign_pool_counters, rounds=1, iterations=1)
    assert counters["sweep.steps"] == 315


def test_perf_sweep_costs_each_qrun_once(benchmark, monkeypatch):
    """A round gathers what it reads instead of costing it.  Count-based
    guard — one pass over the ledger's 31 ``eval_campaign`` queries
    builds a costing context twice per sweep (the truth of the swept
    locations and the origin) and once per round whose spills leave rows
    to go on (over the ``q_run`` they learned), never per spill or per
    step; and it builds the AxisPlans gather tables once per bouquet that
    asks for them, every contour in that one pass."""
    from repro.core.contours import AxisTables, ContourTables
    from repro.sweep import SweepEngine
    from repro.sweep import engine as engine_module
    from repro.sweep.cohorts import BatchCoster
    from tests.conftest import campaign_pool_counters

    counts = {"contexts": 0, "sweeps": 0, "steps": 0}
    going_on, built, asked = set(), [], []
    context, sweep, step = BatchCoster.context, SweepEngine._sweep, SweepEngine._step
    spill = engine_module.spill
    build, gather = AxisTables._build, ContourTables.gather.fget

    def counting_context(self, values):
        counts["contexts"] += 1
        return context(self, values)

    def counting_sweep(self, flat):
        counts["sweeps"] += 1
        return sweep(self, flat)

    def counting_step(self, rows):
        counts["steps"] += 1
        return step(self, rows)

    def counting_spill(*args):
        outcome = spill(*args)
        if (~outcome.answered).any():
            going_on.add(counts["steps"])
        return outcome

    monkeypatch.setattr(BatchCoster, "context", counting_context)
    monkeypatch.setattr(SweepEngine, "_sweep", counting_sweep)
    monkeypatch.setattr(SweepEngine, "_step", counting_step)
    monkeypatch.setattr(engine_module, "spill", counting_spill)
    monkeypatch.setattr(AxisTables, "_build", lambda self: built.append(self) or build(self))
    monkeypatch.setattr(
        ContourTables, "gather",
        property(lambda self: asked.append(self._axis_tables) or gather(self)),
    )
    benchmark.pedantic(campaign_pool_counters, rounds=1, iterations=1)
    monkeypatch.undo()

    assert counts["sweeps"] == 31 and going_on
    assert counts["contexts"] == 2 * counts["sweeps"] + len(going_on)
    assert sorted(map(id, built)) == sorted({id(holder) for holder in asked})


def test_perf_sweep_engine_field(benchmark, env):
    """The full optimized cost field via the sweep engine.

    Guards the vectorized sweep kernel: one cold sweep of the 3D grid
    (totals memo defeated each round so the rounds, not the result
    cache, are measured)."""
    from repro.sweep import SweepEngine

    _, ql, _ = env
    engine = SweepEngine(ql.bouquet)

    def kernel():
        return engine.cost_field(refresh=True)

    field = benchmark(kernel)
    assert field.shape == ql.space.shape
    assert (field > 0).all()
