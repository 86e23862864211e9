"""ServingSummary / summarize_serving: the `repro serve-stats` account."""

from __future__ import annotations

import pytest

from repro.obs import summarize_serving
from repro.obs.summary import ServingSummary

RECORDS = [
    {"type": "counter", "name": "serve.requests", "value": 4},
    {"type": "counter", "name": "serve.cache.hit_memory", "value": 2},
    {"type": "counter", "name": "serve.cache.hit_disk", "value": 1},
    {"type": "counter", "name": "serve.cache.miss", "value": 1},
    {"type": "counter", "name": "serve.cache.store", "value": 1},
    {"type": "counter", "name": "serve.singleflight.coalesced", "value": 2},
    {"type": "counter", "name": "optimizer.calls", "value": 32},
    # Noise that must NOT be folded into the serving account:
    {"type": "counter", "name": "runtime.executions", "value": 9},
    {"type": "span_end", "name": "serve.compile", "dur": 0.5},
    {"type": "span_end", "name": "serve.compile", "dur": 0.25},
    {"type": "span_end", "name": "serve.execute", "dur": 0.125},
    {"type": "span_end", "name": "api.compile", "dur": 99.0},
    {"type": "span_start", "name": "serve.compile"},
]


def test_summarize_serving_harvests_counters_and_spans():
    summary = summarize_serving(RECORDS)
    assert summary.requests == 4
    assert summary.lookups == 4
    assert summary.hit_rate == pytest.approx(0.75)
    assert summary.counters["optimizer.calls"] == 32
    assert "runtime.executions" not in summary.counters
    assert summary.compile_spans == 2
    assert summary.compile_seconds == pytest.approx(0.75)
    assert summary.execute_spans == 1
    assert summary.execute_seconds == pytest.approx(0.125)


def test_empty_stream_is_a_zero_summary():
    summary = summarize_serving([])
    assert summary.requests == 0
    assert summary.lookups == 0
    assert summary.hit_rate == 0.0
    assert summary.compile_spans == 0


def test_describe_renders_the_ladder():
    text = summarize_serving(RECORDS).describe()
    for needle in ("memory hits", "hit rate", "75%", "coalesced", "requests"):
        assert needle in text


def test_summary_from_live_counters():
    summary = ServingSummary(
        counters={"serve.cache.hit_memory": 3, "serve.cache.miss": 1}
    )
    assert summary.hit_rate == pytest.approx(0.75)
    assert isinstance(summary.describe(), str)


def test_front_end_counters_get_their_own_table():
    summary = summarize_serving(
        [
            {"type": "counter", "name": "serve.front.requests", "value": 10},
            {"type": "counter", "name": "serve.front.admitted", "value": 7},
            {"type": "counter", "name": "serve.front.shed.quota", "value": 2},
            {"type": "counter", "name": "serve.front.shed.queue", "value": 1},
            {"type": "counter", "name": "serve.front.completed.ok", "value": 6},
            {
                "type": "counter",
                "name": "serve.front.completed.degraded",
                "value": 1,
            },
        ]
    )
    assert summary.front_requests == 10
    text = summary.describe()
    for needle in (
        "admission / shedding",
        "shed (quota)",
        "completed ok",
        "completed degraded",
    ):
        assert needle in text


def test_front_end_table_absent_when_gateway_unused():
    assert "admission" not in summarize_serving(RECORDS).describe()


def test_parallel_substrate_counters_get_their_own_table():
    summary = summarize_serving(
        [
            {"type": "counter", "name": "par.pool.starts", "value": 1},
            {"type": "counter", "name": "par.pool.runs", "value": 5},
            {"type": "counter", "name": "par.pool.reuse", "value": 4},
            {"type": "counter", "name": "par.tasks", "value": 40},
            {"type": "counter", "name": "par.payload.ships", "value": 2},
            {"type": "counter", "name": "par.payload.cache_hits", "value": 8},
        ]
    )
    assert summary.pool_runs == 5
    assert summary.pool_reuse_rate == pytest.approx(0.8)
    assert summary.payload_cache_hit_rate == pytest.approx(0.8)
    text = summary.describe()
    for needle in (
        "parallel substrate",
        "pool reuse rate",
        "payload cache hits",
    ):
        assert needle in text


def test_parallel_substrate_table_absent_when_pool_unused():
    assert "parallel substrate" not in summarize_serving(RECORDS).describe()


def test_access_path_counters_get_their_own_table():
    summary = summarize_serving(
        [
            {"type": "counter", "name": "executor.index_builds", "value": 3},
            {"type": "counter", "name": "executor.index_hits", "value": 45},
            {"type": "counter", "name": "executor.selectivity_probes", "value": 17},
            {"type": "counter", "name": "core.pinned_dimensions", "value": 16},
            {"type": "counter", "name": "executor.dense_probes", "value": 510},
            {"type": "counter", "name": "executor.searched_probes", "value": 12},
            {"type": "counter", "name": "executor.dense_groups", "value": 36},
            {"type": "counter", "name": "executor.sorted_groups", "value": 7},
            {"type": "counter", "name": "executor.builds", "value": 89},
            {"type": "counter", "name": "executor.build_replays", "value": 144},
        ]
    )
    assert summary.index_lookups == 48
    text = summary.describe()
    for needle in (
        "access paths",
        "index builds",
        "index hits",
        "45",
        "selectivity probes",
        "17",
        "dimensions pinned at start",
        "16",
        "join probes, addressed",
        "510",
        "join probes, searched",
        "group-bys, addressed",
        "36",
        "group-bys, sorted",
        "7",
        "build sides, built",
        "89",
        "build sides, replayed",
        "144",
    ):
        assert needle in text
    assert "access paths" not in summarize_serving(RECORDS).describe()
    hash_joins_only = summarize_serving(
        [{"type": "counter", "name": "executor.searched_probes", "value": 2}]
    )
    assert "join probes, searched" in hash_joins_only.describe()
    float_group_by_only = summarize_serving(
        [{"type": "counter", "name": "executor.sorted_groups", "value": 1}]
    )
    assert "group-bys, sorted" in float_group_by_only.describe()
    replays_only = summarize_serving(
        [{"type": "counter", "name": "executor.build_replays", "value": 3}]
    )
    assert "build sides, replayed" in replays_only.describe()
