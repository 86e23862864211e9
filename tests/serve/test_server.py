"""BouquetServer: single-flight compiles, the degradation ladder, and
statistics-refresh invalidation."""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import Catalog, execute as api_execute
from repro.exceptions import BouquetError
from repro.obs import MemorySink, Tracer
from repro.serve import BouquetArtifactStore, BouquetServer, ServeRequest

SQL = (
    "select * from lineitem, orders, part "
    "where p_partkey = l_partkey and l_orderkey = o_orderkey "
    "and p_retailprice < 1000"
)
SQL2 = (
    "select * from lineitem, orders "
    "where l_orderkey = o_orderkey and o_totalprice < 150000"
)


@pytest.fixture
def tracer():
    return Tracer(MemorySink())


@pytest.fixture
def server(catalog, small_config, tracer):
    with BouquetServer(catalog, config=small_config, tracer=tracer) as srv:
        yield srv


def _counters(tracer):
    return tracer.snapshot()["counters"]


def test_cold_then_warm_serves_without_optimizer(server, tracer):
    cold = server.serve(SQL)
    assert cold.status == "ok"
    assert cold.cache == "compiled"
    assert cold.rows is not None and cold.rows > 0
    assert cold.mso_bound is not None

    before = _counters(tracer).get("optimizer.calls", 0)
    warm = server.serve(SQL)
    assert warm.status == "ok"
    assert warm.cache == "memory"
    assert warm.rows == cold.rows
    assert warm.total_cost == pytest.approx(cold.total_cost)
    # The warm request never touched the optimizer.
    assert _counters(tracer).get("optimizer.calls", 0) == before

    stats = server.stats()
    assert stats["counters"]["serve.requests"] == 2
    assert stats["counters"]["serve.served_ok"] == 2
    assert stats["store"]["memory_entries"] == 1
    assert stats["inflight"] == 0


def test_serve_matches_direct_api_execution(server, catalog, small_config):
    served = server.serve(SQL2)
    compiled, _ = server.compile(SQL2)
    direct = api_execute(compiled, catalog.database)
    assert served.rows == direct.result_rows
    assert served.total_cost == pytest.approx(direct.total_cost)
    trace = [(e.contour_index, e.plan_id, e.spilled) for e in served.result.executions]
    assert trace == [
        (e.contour_index, e.plan_id, e.spilled) for e in direct.executions
    ]


def test_singleflight_coalesces_concurrent_misses(server, tracer):
    n = 6
    barrier = threading.Barrier(n)
    results, errors = [], []

    def request():
        barrier.wait()
        try:
            results.append(server.compile(SQL))
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [threading.Thread(target=request) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors
    assert len(results) == n
    sources = [source for _, source in results]
    # Exactly one request ran the compile; everyone else coalesced onto
    # its future (or, if they raced in late, hit the freshly stored entry).
    assert sources.count("compiled") == 1
    assert all(s in ("compiled", "coalesced", "memory") for s in sources)
    counters = _counters(tracer)
    assert counters["serve.cache.store"] == 1
    assert counters.get("serve.singleflight.coalesced", 0) == sources.count("coalesced")
    # Every thread got the same artifact.
    bounds = {compiled.mso_bound for compiled, _ in results}
    assert len(bounds) == 1


def test_mixed_hit_miss_workload(server, tracer):
    statuses = [server.serve(q).cache for q in (SQL, SQL2, SQL, SQL2, SQL)]
    assert statuses == ["compiled", "compiled", "memory", "memory", "memory"]
    counters = _counters(tracer)
    assert counters["serve.cache.store"] == 2
    assert counters["serve.cache.hit_memory"] == 3


def test_budget_exhaustion_is_reported_not_raised(server):
    served = server.serve(ServeRequest(query=SQL, budget=1e-3))
    assert served.status == "budget-exhausted"
    assert served.error_code == "budget-exhausted"
    assert served.result is None
    assert "budget" in served.error
    assert server.stats()["counters"]["serve.budget_exhausted"] == 1


def test_compile_timeout_degrades_to_native_path(catalog, small_config, tracer):
    with BouquetServer(
        catalog, config=small_config, compile_timeout=0.05, tracer=tracer
    ) as server:
        inner = server._compile_and_store

        def slow_compile(key, query, sql):
            time.sleep(0.4)
            return inner(key, query, sql)

        server._compile_and_store = slow_compile
        served = server.serve(SQL)
        assert served.status == "degraded"
        assert served.cache == "none"
        assert served.mso_bound is None  # no guarantee on the NAT path
        assert served.rows is not None and served.rows > 0
        assert "deadline" in served.error
        counters = _counters(tracer)
        assert counters["serve.compile_timeouts"] == 1
        assert counters["serve.degraded"] == 1

        # The compile kept running in the background and still published
        # the artifact; the next request is a plain cache hit.
        deadline = time.time() + 10.0
        while server.stats()["store"]["memory_entries"] == 0:
            assert time.time() < deadline, "background compile never landed"
            time.sleep(0.02)
        again = server.serve(SQL)
        assert again.status == "ok"
        assert again.cache == "memory"
        assert again.rows == served.rows


def test_compile_failure_degrades_to_native_path(catalog, small_config, tracer):
    with BouquetServer(catalog, config=small_config, tracer=tracer) as server:
        def broken_compile(key, query, sql):
            raise BouquetError("synthetic compile failure")

        server._compile_and_store = broken_compile
        served = server.serve(SQL)
        assert served.status == "degraded"
        assert "synthetic compile failure" in served.error
        counters = _counters(tracer)
        assert counters["serve.compile_failures"] == 1
        assert counters["serve.degraded"] == 1


def test_refresh_statistics_patches_cached_artifacts(server, catalog, database):
    assert server.serve(SQL).cache == "compiled"
    assert server.serve(SQL).cache == "memory"

    new_stats = database.build_statistics(sample_size=800, seed=5)
    dropped = server.refresh_statistics(new_stats)
    assert catalog.statistics is new_stats

    # The delta patch carried the artifact across the fingerprint change:
    # the next request is a cache hit, not a recompile.
    refreshed = server.serve(SQL)
    assert refreshed.status == "ok"
    assert refreshed.cache == "memory"
    counters = server.stats()["counters"]
    assert counters["serve.statistics_refreshes"] == 1
    assert counters["serve.cache.patched"] == 1
    # The stale-fingerprint original was still swept out.
    assert dropped == 1
    assert counters["serve.cache.invalidated"] == 1


def test_refresh_statistics_without_patching_recompiles(
    server, catalog, database
):
    assert server.serve(SQL).cache == "compiled"

    new_stats = database.build_statistics(sample_size=800, seed=5)
    dropped = server.refresh_statistics(new_stats, patch=False)
    assert dropped == 1
    assert catalog.statistics is new_stats

    refreshed = server.serve(SQL)
    assert refreshed.status == "ok"
    assert refreshed.cache == "compiled"
    counters = server.stats()["counters"]
    assert counters["serve.statistics_refreshes"] == 1
    assert counters["serve.cache.invalidated"] == 1
    assert counters.get("serve.cache.patched", 0) == 0


def test_serving_requires_a_database(schema, statistics, small_config):
    server = BouquetServer(
        Catalog(schema, statistics=statistics), config=small_config
    )
    with pytest.raises(BouquetError):
        server.serve(SQL)
    server.close()


def test_closed_server_refuses_new_compiles(catalog, small_config):
    server = BouquetServer(catalog, config=small_config)
    server.close()
    with pytest.raises(BouquetError):
        server.compile(SQL)


def test_server_over_disk_store(catalog, small_config, tmp_path):
    store = BouquetArtifactStore(root=str(tmp_path))
    with BouquetServer(catalog, config=small_config, store=store) as server:
        first = server.serve(SQL)
        assert first.cache == "compiled"
    # A brand-new server over the same directory starts warm.
    with BouquetServer(
        catalog, config=small_config, store=BouquetArtifactStore(root=str(tmp_path))
    ) as server:
        warm = server.serve(SQL)
        assert warm.cache == "disk"
        assert warm.rows == first.rows


def test_sequential_crossing_key_serves_the_same_run(server):
    """A client still sending ``"crossing": "sequential"`` gets the run
    it would get without the key, from the same cached artifact."""
    plain = server.serve(SQL)
    assert plain.status == "ok" and plain.cache == "compiled"

    keyed = server.serve(
        ServeRequest.from_dict({"query": SQL, "crossing": "sequential"})
    )
    assert keyed.status == "ok"
    assert keyed.cache == "memory"
    assert keyed.rows == plain.rows
    assert keyed.result.total_cost == plain.result.total_cost
