"""The metric dictionary: one definition, mirrored by BENCHMARK.json.

``ledger/tests/test_ledger_schema.py`` fails when this file, ``BENCHMARK.json``
and ``README.md`` disagree.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

WORKLOADS: Dict[str, str] = {
    "serve_hot": (
        "canned queries compiled once and served from the memory tier: "
        "all time is the run-time driver and the executor"
    ),
    "serve_churn": (
        "templated queries over a 16-entry memory tier with statistics "
        "refreshes: compile, rebind, disk load, put, evict and patch"
    ),
    "compile_cold": (
        "uncached compile of Table 2 and generated queries: optimizer, "
        "batch kernel, POSP, contours; bypasses executor, serve and par"
    ),
    "eval_campaign": (
        "MSO campaign queries, one per dispatch to the 2-worker pool: "
        "dimensioning, compile, sweep field, bound check; abstract costs only"
    ),
}


#: Every timing below is the clock reading divided by a machine slowdown
#: (``harness.NoiseGuard``): the run's, or for a set-up the one read
#: around it.
class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    definition: str


END_TO_END: List[EndToEnd] = [
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "imports plus the median of three full set-ups, each: datagen, "
        "statistics, op list, servers/pool, cold touches and one "
        "complete warm-up pass",
    ),
    EndToEnd(
        "ops_per_s", "1/s", "higher", 0.25,
        "ops per pass divided by the sum of the slot latencies (a slot's "
        "latency is the best of its samples, one per pass)",
    ),
    EndToEnd(
        "op_p50_ms", "ms", "lower", 0.25,
        "median of the slot latencies",
    ),
    EndToEnd(
        "op_p90_ms", "ms", "lower", 0.25,
        "90th percentile of the slot latencies",
    ),
    EndToEnd(
        "cpu_ms_per_op", "ms", "lower", 0.25,
        "user+system CPU of the process and its pool workers inside an "
        "op, best sample per slot, summed and divided by ops per pass",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.05,
        "ru_maxrss of the benchmark process at the end of the timed "
        "section (set-ups and passes; not the output verification)",
    ),
]


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    workloads: Tuple[str, ...]
    moves: str


_HOT = ("serve_hot",)
_CHURN = ("serve_churn",)
_SERVE = ("serve_hot", "serve_churn")
_COLD = ("compile_cold",)
_EVAL = ("eval_campaign",)
_ALL = tuple(WORKLOADS)

PER_LAYER: List[PerLayer] = [
    PerLayer("query.parse_ms", "ms", "lower", _SERVE, "op_p50_ms"),
    PerLayer("serve.fingerprint.key_ms", "ms", "lower", _SERVE, "op_p50_ms"),
    PerLayer("serve.front.admit_ms", "ms", "lower", _SERVE, "op_p50_ms"),
    PerLayer("serve.envelope.codec_ms", "ms", "lower", _HOT, "op_p50_ms"),
    PerLayer("serve.http.overhead_ms", "ms", "lower", _HOT, "none (watch-only)"),
    PerLayer("serve.cache.lookup_mem_ms", "ms", "lower", _SERVE, "op_p50_ms"),
    PerLayer("serve.cache.lookup_disk_ms", "ms", "lower", _CHURN, "op_p50_ms, ops_per_s"),
    PerLayer("serve.cache.put_ms", "ms", "lower", _CHURN, "ops_per_s"),
    PerLayer("serve.cache.hit_ratio_mem", "ratio", "higher", _CHURN, "ops_per_s"),
    PerLayer("serve.cache.hit_ratio_disk", "ratio", "higher", _CHURN, "ops_per_s"),
    PerLayer("serve.cache.evictions", "count", "lower", _CHURN, "ops_per_s"),
    PerLayer("serve.cache.purged", "count", "lower", _CHURN, "ops_per_s"),
    PerLayer("template.signature_ms", "ms", "lower", _CHURN, "op_p90_ms"),
    PerLayer("template.rebind_ms", "ms", "lower", _CHURN, "op_p90_ms"),
    PerLayer("template.hit_ratio", "ratio", "higher", _CHURN, "ops_per_s"),
    PerLayer("template.fallbacks", "count", "lower", _CHURN, "ops_per_s"),
    PerLayer("drift.refresh_ms", "ms", "lower", _CHURN, "op_p90_ms"),
    PerLayer("drift.patched_ratio", "ratio", "higher", _CHURN, "op_p90_ms"),
    PerLayer("drift.replanned_fraction", "ratio", "lower", _CHURN, "op_p90_ms"),
    PerLayer("api.compile_ms", "ms", "lower", _CHURN + _COLD + _EVAL, "ops_per_s, op_p50_ms; op_p90_ms on serve_churn"),
    PerLayer("optimizer.locations_planned", "count", "lower", _COLD, "cpu_ms_per_op"),
    PerLayer("optimizer.batch_calls", "count", "lower", _COLD, "cpu_ms_per_op"),
    PerLayer("batchopt.locations_per_s", "1/s", "higher", _COLD, "ops_per_s"),
    PerLayer("ess.posp_ms", "ms", "lower", _COLD, "op_p50_ms"),
    PerLayer("ess.reduction_ms", "ms", "lower", _COLD, "op_p50_ms"),
    PerLayer("ess.posp_plans", "count", "lower", _COLD, "op_p50_ms"),
    PerLayer("core.contours_ms", "ms", "lower", _COLD, "op_p50_ms"),
    PerLayer("core.driver_ms", "ms", "lower", _SERVE, "op_p50_ms, ops_per_s"),
    PerLayer("core.partial_executions_per_op", "count", "lower", _SERVE, "op_p90_ms"),
    PerLayer("core.contours_climbed_per_op", "count", "lower", _SERVE, "op_p90_ms"),
    PerLayer("core.wasted_cost_ratio", "ratio", "lower", _SERVE, "cpu_ms_per_op"),
    PerLayer("core.mso_over_bound_max", "ratio", "lower", _EVAL, "failed ops"),
    PerLayer("executor.run_ms", "ms", "lower", _SERVE, "ops_per_s, op_p90_ms"),
    PerLayer("executor.calls_per_op", "count", "lower", _SERVE, "ops_per_s"),
    PerLayer("executor.rows_per_s", "1/s", "higher", _SERVE, "ops_per_s"),
    PerLayer("wlgen.generate_ms", "ms", "lower", _EVAL, "ops_per_s"),
    PerLayer("wlgen.dimension_ms", "ms", "lower", _EVAL, "ops_per_s"),
    PerLayer("sweep.field_ms", "ms", "lower", _EVAL, "ops_per_s, op_p50_ms"),
    PerLayer("sweep.locations_per_s", "1/s", "higher", _EVAL, "ops_per_s"),
    PerLayer("robustness.mso_ms", "ms", "lower", _EVAL, "none (watch-only)"),
    PerLayer("par.dispatch_ms_per_task", "ms", "lower", _EVAL, "op_p50_ms"),
    PerLayer("par.speedup_2w", "ratio", "higher", _EVAL, "ops_per_s"),
    PerLayer("par.payload_ships", "count", "lower", _EVAL, "setup_s"),
    PerLayer("par.payload_hits", "count", "higher", _EVAL, "setup_s"),
    PerLayer("par.worker_peak_rss_mb", "MB", "lower", _EVAL, "peak_rss_mb"),
    PerLayer("par.leaked_segments", "count", "lower", _EVAL, "failed ops"),
    PerLayer("obs.trace_overhead_ratio", "ratio", "lower", _ALL, "all"),
    PerLayer("harness.coverage", "ratio", "higher", _ALL, "none"),
    PerLayer("harness.pass_spread", "ratio", "lower", _ALL, "none"),
    PerLayer("harness.calib_spread", "ratio", "lower", _ALL, "none"),
    PerLayer("harness.noise_retries", "count", "lower", _ALL, "none"),
    PerLayer("harness.machine_slowdown", "ratio", "lower", _ALL, "none"),
]

PER_LAYER_UNITS: Dict[str, str] = {row.name: row.unit for row in PER_LAYER}
