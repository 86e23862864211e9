"""BouquetServer: single-flight compiles, the degradation ladder,
statistics-refresh invalidation, and the per-text prepared memo."""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.api import Catalog, execute as api_execute
from repro.catalog.statistics import DatabaseStatistics
from repro.exceptions import BouquetError
from repro.executor.reference import reference_row_count
from repro.obs import MemorySink, Tracer
from repro.query import parse_query
from repro.serve import BouquetArtifactStore, BouquetServer, ServeGateway, ServeRequest
from repro.serve import server as server_module
from repro.serve.fingerprint import statistics_fingerprint

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

        def slow_compile(*task):
            time.sleep(0.4)
            return inner(*task)

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
        def broken_compile(*task):
            raise BouquetError("synthetic compile failure")

        server._compile_and_store = broken_compile
        served = server.serve(SQL)
        assert served.status == "degraded"
        assert "synthetic compile failure" in served.error
        counters = _counters(tracer)
        assert counters["serve.compile_failures"] == 1
        assert counters["serve.degraded"] == 1


def test_an_unanswered_run_degrades_to_native_path(server, tracer, monkeypatch):
    """A bouquet run that ends with ``completed=False`` (``qa`` outside
    the ESS: no contour's budget answered it) is not served ``ok``:
    the NAT fallback answers it, ``degraded`` with ``outside-ess``."""
    answered = server.serve(SQL)
    execute = server_module.api_execute

    def unanswered(*args, **kwargs):
        return replace(execute(*args, **kwargs), completed=False, result_rows=None)

    monkeypatch.setattr(server_module, "api_execute", unanswered)
    served = server.serve(SQL)
    assert (served.status, served.error_code) == ("degraded", "outside-ess")
    assert served.cache == "memory"
    assert served.mso_bound is None  # no guarantee on the NAT path
    assert served.rows == answered.rows  # NAT's rows: the same answer
    counters = _counters(tracer)
    assert counters["serve.outside_ess"] == counters["serve.degraded"] == 1
    assert counters["serve.served_ok"] == 1


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
    server, catalog, statistics
):
    """A refresh that moves a compile input cannot carry the artifact
    over: here the new statistics lack ``orders``, so ``o_totalprice``
    turns very-high-uncertainty and becomes the only error dimension.
    The entry is invalidated and the next request compiles."""
    two_selections = SQL2 + " and l_quantity < 20"
    assert server.serve(two_selections).cache == "compiled"

    new_stats = DatabaseStatistics()
    for name in statistics.table_names:
        if name != "orders":
            new_stats.set_table(statistics.table(name))
    dropped = server.refresh_statistics(new_stats)
    assert dropped == 1
    assert catalog.statistics is new_stats

    refreshed = server.serve(two_selections)
    assert refreshed.status == "ok"
    assert refreshed.cache == "compiled"
    assert [d.pid for d in server.compile(two_selections)[0].space.dimensions] == [
        "sel:orders.o_totalprice<150000"
    ]
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


def _same_answer(a, b):
    return (a.status, a.rows, a.total_cost, a.key) == (b.status, b.rows, b.total_cost, b.key)


def test_a_repeated_text_is_parsed_and_keyed_once(server, catalog, small_config, tracer, monkeypatch):
    cold = server.serve(SQL)
    parses = []
    parse = server_module.parse_query
    monkeypatch.setattr(server_module, "parse_query", lambda *a: parses.append(a) or parse(*a))
    warm = server.serve(SQL)
    assert parses == [] and warm.cache == "memory"
    assert warm.key == cold.key
    with BouquetServer(catalog, config=small_config) as fresh:
        assert _same_answer(warm, fresh.serve(SQL))
    counters = server.stats()["counters"]
    assert counters["serve.prepared.misses"] == 1
    assert counters["serve.prepared.hits"] == 1


def test_a_parse_failure_is_never_prepared(server):
    for _ in range(2):
        failed = server.serve("select * from nowhere")
        assert (failed.status, failed.error_code) == ("failed", "parse-error")
    assert len(server._prepared) == 0
    counters = server.stats()["counters"]
    assert counters["serve.parse_failures"] == 2
    assert "serve.prepared.misses" not in counters


def test_a_statistics_change_re_prepares_the_text(server, catalog, database):
    first = server.serve(SQL)
    assert first.key.statistics_digest == statistics_fingerprint(catalog.statistics)

    refreshed = database.build_statistics(sample_size=800, seed=5)
    server.refresh_statistics(refreshed)
    after_refresh = server.serve(SQL)
    assert after_refresh.key.statistics_digest == statistics_fingerprint(refreshed)
    assert after_refresh.key.statistics_digest != first.key.statistics_digest

    # A setter on the live statistics bumps their version token: the
    # remembered key is stale without any refresh call.
    table = refreshed.table("part")
    column = table.column("p_retailprice")
    table.set_column("p_retailprice", replace(column, max_value=column.max_value * 2))
    after_setter = server.serve(SQL)
    assert after_setter.key.statistics_digest == statistics_fingerprint(refreshed)
    assert after_setter.key.statistics_digest != after_refresh.key.statistics_digest
    assert server.stats()["counters"]["serve.prepared.misses"] == 3


def test_the_prepared_memo_is_bounded_by_the_store_capacity(catalog, small_config):
    store = BouquetArtifactStore(capacity=2)
    with BouquetServer(catalog, config=small_config, store=store) as server:
        texts = [SQL2.replace("150000", str(150000 + i)) for i in range(5)]
        for text in texts:
            server.compile(text)
            assert len(server._prepared) <= store.capacity
        assert list(server._prepared) == texts[-2:]


def test_eight_threads_on_one_text_compile_once(server, tracer):
    barrier = threading.Barrier(8)
    responses = [None] * 8

    def request(slot):
        barrier.wait(timeout=30)
        responses[slot] = server.serve(SQL)

    threads = [threading.Thread(target=request, args=(slot,)) for slot in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert _counters(tracer)["serve.cache.store"] == 1
    assert [r.cache for r in responses].count("compiled") == 1
    assert all(r.status == "ok" and _same_answer(r, responses[0]) for r in responses)


def test_constants_equal_to_six_digits_get_their_own_artifacts(server, catalog, database):
    """Pids print constants with ``:g``; the artifact key must not."""
    prices = np.sort(database.column("orders", "o_totalprice"))
    price = float(prices[prices.size // 2])
    below = float(np.nextafter(price, -np.inf))
    assert f"{price:g}" == f"{below:g}"
    texts = [
        "select * from orders, customer where o_custkey = c_custkey "
        f"and o_totalprice <= {constant!r}"
        for constant in (price, below)
    ]
    served = [server.serve(text) for text in texts]
    assert served[0].key.digest != served[1].key.digest
    assert served[1].cache in ("template", "compiled")  # not a memory hit
    want = [reference_row_count(database, parse_query(text, catalog.schema)) for text in texts]
    assert [r.rows for r in served] == want and want[0] > want[1]


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


def _count_validations(monkeypatch):
    calls = []
    validate = ServeRequest.validate
    monkeypatch.setattr(
        ServeRequest, "validate", lambda self: calls.append(self) or validate(self)
    )
    return calls


def test_a_gateway_request_is_validated_once(server, monkeypatch):
    gateway = ServeGateway(server)
    server.serve(SQL)  # compile outside the count
    calls = _count_validations(monkeypatch)
    for request in (ServeRequest(query=SQL), ServeRequest(query=SQL2), SQL):
        before = len(calls)
        assert gateway.handle(request).ok
        assert len(calls) - before == 1
    invalid = gateway.handle(ServeRequest(query=SQL, mode="turbo"))
    assert (invalid.status, invalid.error_code) == ("failed", "invalid-request")
    assert len(calls) == 4


def test_serve_validates_once_and_rejects_an_invalid_request(server, monkeypatch):
    calls = _count_validations(monkeypatch)
    assert server.serve(ServeRequest(query=SQL)).ok
    assert len(calls) == 1
    with pytest.raises(BouquetError, match="runtime mode"):
        server.serve(ServeRequest(query=SQL, mode="turbo"))
