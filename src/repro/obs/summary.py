"""Trace summarization: turn a record stream into a per-contour account.

Consumes the records produced by :mod:`repro.obs.tracer` (from a JSONL
file or a :class:`~repro.obs.tracer.MemorySink`) and condenses them into
the paper's Table 3 vocabulary: per isocost contour, how many plans were
executed (spilled vs full), under what budget, what they spent, and what
was learned — plus the compile-side account (optimizer calls, pruning,
reduction) and the metric aggregates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

__all__ = [
    "ContourAccount",
    "ServingSummary",
    "TraceSummary",
    "format_table",
    "read_trace",
    "summarize_serving",
    "summarize_trace",
]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned fixed-width text table (the trace summaries,
    the benchmarks' paper tables and the examples all print with it)."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        magnitude = abs(cell)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{cell:.2e}"
        if magnitude >= 100:
            return f"{cell:.0f}"
        return f"{cell:.2f}"
    return str(cell)


@dataclass
class ContourAccount:
    """Execution account for one isocost contour (one Table 3 row)."""

    contour: int
    budget: float = 0.0
    executions: int = 0
    spilled: int = 0
    cost_spent: float = 0.0
    completed: bool = False
    final_plan_id: Optional[int] = None
    learned_pids: List[str] = field(default_factory=list)

    @property
    def full(self) -> int:
        return self.executions - self.spilled


@dataclass
class TraceSummary:
    """Everything ``repro trace`` reports about one trace."""

    contours: List[ContourAccount]
    total_cost: float
    execution_count: int
    completed: bool
    final_plan_id: Optional[int]
    counters: Dict[str, float]
    timings: Dict[str, Dict[str, float]]
    spans: List[Dict[str, Any]]
    #: Selectivities measured before the first contour (pid -> value)
    #: and what measuring them was charged (part of ``total_cost``).
    pinned: Dict[str, float] = field(default_factory=dict)
    probe_cost: float = 0.0

    def describe(self) -> str:
        lines: List[str] = []
        if self.contours:
            rows = []
            for acct in self.contours:
                rows.append(
                    [
                        f"IC{acct.contour}",
                        acct.budget,
                        acct.executions,
                        acct.spilled,
                        acct.full,
                        acct.cost_spent,
                        ",".join(acct.learned_pids) or "-",
                        (
                            f"completed (P{acct.final_plan_id})"
                            if acct.completed
                            else "crossed"
                        ),
                    ]
                )
            lines.append(
                format_table(
                    [
                        "contour",
                        "budget",
                        "execs",
                        "spilled",
                        "full",
                        "cost spent",
                        "learned",
                        "outcome",
                    ],
                    rows,
                    title="per-contour execution account",
                )
            )
            status = (
                f"completed with P{self.final_plan_id}"
                if self.completed
                else "did not complete"
            )
            if self.pinned:
                start = ", ".join(f"{pid}={v:.4g}" for pid, v in self.pinned.items())
                lines.append(
                    f"started from index probes (cost {self.probe_cost:.4g}): {start}"
                )
            lines.append(
                f"total: {self.execution_count} executions, "
                f"cost {self.total_cost:.4g} — {status}"
            )
        else:
            lines.append("no bouquet executions in trace")
        top = [s for s in self.spans if s.get("parent", 0) == 0]
        if top:
            rows = [
                [s["name"], f"{s.get('dur', 0.0):.4f}s", _attr_blurb(s.get("attrs", {}))]
                for s in top
            ]
            lines.append("")
            lines.append(format_table(["span", "wall", "attrs"], rows, title="root spans"))
        if self.counters:
            lines.append("")
            lines.append(
                format_table(
                    ["counter", "value"],
                    sorted(self.counters.items()),
                    title="counters",
                )
            )
        if self.timings:
            rows = [
                [name, t["count"], t["total"], t["mean"], t["max"]]
                for name, t in sorted(self.timings.items())
            ]
            lines.append("")
            lines.append(
                format_table(
                    ["timing", "count", "total s", "mean s", "max s"],
                    rows,
                    title="timings",
                )
            )
        single = self.counters.get("optimizer.calls", 0)
        batched = self.counters.get("optimizer.batched_locations", 0)
        if single or batched:
            lines.append("")
            lines.append(
                f"optimizer account: {single + batched:g} locations planned "
                f"({single:g} one-location calls, {batched:g} batched across "
                f"{self.counters.get('optimizer.batch_calls', 0):g} slab runs)"
            )
        return "\n".join(lines)


def _attr_blurb(attrs: Dict[str, Any], limit: int = 4) -> str:
    parts = []
    for key in sorted(attrs):
        value = attrs[key]
        if isinstance(value, float):
            value = f"{value:.4g}"
        parts.append(f"{key}={value}")
        if len(parts) >= limit:
            break
    return " ".join(parts)


@dataclass
class ServingSummary:
    """Everything ``repro serve-stats`` reports about a serving trace.

    Built from the ``serve.*`` counters plus the serve-side spans; the
    cache ladder (memory → disk → compile → coalesce) and the
    degradation tail (timeouts, failures, NAT fallbacks) each get a
    line.
    """

    counters: Dict[str, float] = field(default_factory=dict)
    compile_spans: int = 0
    compile_seconds: float = 0.0
    execute_spans: int = 0
    execute_seconds: float = 0.0
    rebind_spans: int = 0
    rebind_seconds: float = 0.0

    def _c(self, name: str) -> float:
        return self.counters.get(name, 0)

    @property
    def requests(self) -> float:
        return self._c("serve.requests")

    @property
    def optimizer_calls(self) -> float:
        """One-location optimizer invocations (``Optimizer.optimize``)."""
        return self._c("optimizer.calls")

    @property
    def batched_locations(self) -> float:
        """ESS locations costed through the batch DP engine's slabs."""
        return self._c("optimizer.batched_locations")

    @property
    def optimized_locations(self) -> float:
        """Total locations planned: slab locations plus one-location calls."""
        return self.optimizer_calls + self.batched_locations

    @property
    def front_requests(self) -> float:
        """Requests that entered the multi-tenant gateway."""
        return self._c("serve.front.requests")

    @property
    def lookups(self) -> float:
        return (
            self._c("serve.cache.hit_memory")
            + self._c("serve.cache.hit_disk")
            + self._c("serve.cache.miss")
        )

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        if not lookups:
            return 0.0
        return (
            self._c("serve.cache.hit_memory") + self._c("serve.cache.hit_disk")
        ) / lookups

    @property
    def template_lookups(self) -> float:
        return self._c("serve.template.hits") + self._c("serve.template.misses")

    @property
    def template_hit_rate(self) -> float:
        lookups = self.template_lookups
        if not lookups:
            return 0.0
        return self._c("serve.template.hits") / lookups

    @property
    def pool_runs(self) -> float:
        """Fan-outs dispatched through the repro.par worker pool."""
        return self._c("par.pool.runs")

    @property
    def pool_reuse_rate(self) -> float:
        """Fraction of pool fan-outs that reused already-warm workers."""
        if not self.pool_runs:
            return 0.0
        return self._c("par.pool.reuse") / self.pool_runs

    @property
    def payload_cache_hit_rate(self) -> float:
        """Per-worker payload ships avoided by the content-digest cache."""
        total = self._c("par.payload.ships") + self._c("par.payload.cache_hits")
        if not total:
            return 0.0
        return self._c("par.payload.cache_hits") / total

    @property
    def index_lookups(self) -> float:
        """Executor requests for a database-owned index (scan or INL)."""
        return self._c("executor.index_builds") + self._c("executor.index_hits")

    @property
    def rebind_latency(self) -> float:
        """Mean wall seconds per template rebind attempt."""
        if not self.rebind_spans:
            return 0.0
        return self.rebind_seconds / self.rebind_spans

    def describe(self) -> str:
        cache_rows = [
            ["memory hits", self._c("serve.cache.hit_memory")],
            ["disk hits", self._c("serve.cache.hit_disk")],
            ["misses", self._c("serve.cache.miss")],
            ["hit rate", f"{self.hit_rate:.0%}"],
            ["stores", self._c("serve.cache.store")],
            ["evictions", self._c("serve.cache.evict")],
            ["invalidated", self._c("serve.cache.invalidated")],
            ["coalesced compiles", self._c("serve.singleflight.coalesced")],
        ]
        request_rows = [
            ["requests", self.requests],
            ["served ok", self._c("serve.served_ok")],
            ["degraded (NAT)", self._c("serve.degraded")],
            ["budget exhausted", self._c("serve.budget_exhausted")],
            ["failed", self._c("serve.failed")],
            ["compile timeouts", self._c("serve.compile_timeouts")],
            ["compile failures", self._c("serve.compile_failures")],
        ]
        lines = [
            format_table(["cache", "value"], cache_rows, title="artifact cache"),
            "",
            format_table(["requests", "value"], request_rows, title="request ladder"),
        ]
        if self.template_lookups or self._c("serve.template.stores"):
            template_rows = [
                ["hits", self._c("serve.template.hits")],
                ["misses", self._c("serve.template.misses")],
                ["hit rate", f"{self.template_hit_rate:.0%}"],
                ["rebinds", self._c("serve.template.rebinds")],
                ["fallbacks", self._c("serve.template.fallbacks")],
                ["stores", self._c("serve.template.stores")],
                [
                    "rebind latency",
                    f"{self.rebind_latency * 1e3:.2f} ms"
                    if self.rebind_spans
                    else "-",
                ],
            ]
            lines.append("")
            lines.append(
                format_table(
                    ["template", "value"],
                    template_rows,
                    title="template cache",
                )
            )
        if self.front_requests:
            completed = sorted(
                (name.rsplit(".", 1)[1], value)
                for name, value in self.counters.items()
                if name.startswith("serve.front.completed.")
            )
            front_rows = [
                ["requests", self.front_requests],
                ["admitted", self._c("serve.front.admitted")],
                ["invalid", self._c("serve.front.invalid")],
                ["shed (quota)", self._c("serve.front.shed.quota")],
                ["shed (queue full)", self._c("serve.front.shed.queue")],
                ["degraded by overload", self._c("serve.front.degraded_overload")],
            ] + [[f"completed {status}", value] for status, value in completed]
            lines.append("")
            lines.append(
                format_table(
                    ["front-end", "value"],
                    front_rows,
                    title="admission / shedding",
                )
            )
        if self.pool_runs:
            par_rows = [
                ["pool starts", self._c("par.pool.starts")],
                ["pool runs", self.pool_runs],
                ["pool reuse rate", f"{self.pool_reuse_rate:.0%}"],
                ["tasks", self._c("par.tasks")],
                ["payload ships", self._c("par.payload.ships")],
                ["payload cache hits", self._c("par.payload.cache_hits")],
                ["payload cache hit rate", f"{self.payload_cache_hit_rate:.0%}"],
            ]
            lines.append("")
            lines.append(
                format_table(
                    ["parallel", "value"],
                    par_rows,
                    title="parallel substrate",
                )
            )
        counted = ("dense_probes", "searched_probes", "dense_groups", "sorted_groups")
        counted += ("builds", "build_replays", "selectivity_probes")
        if self.index_lookups or any(self._c(f"executor.{name}") for name in counted):
            lines.append("")
            lines.append(
                format_table(
                    ["executor", "value"],
                    [
                        ["index builds", self._c("executor.index_builds")],
                        ["index hits", self._c("executor.index_hits")],
                        ["join probes, addressed", self._c("executor.dense_probes")],
                        ["join probes, searched", self._c("executor.searched_probes")],
                        ["group-bys, addressed", self._c("executor.dense_groups")],
                        ["group-bys, sorted", self._c("executor.sorted_groups")],
                        ["build sides, built", self._c("executor.builds")],
                        ["build sides, replayed", self._c("executor.build_replays")],
                        ["selectivity probes", self._c("executor.selectivity_probes")],
                        ["dimensions pinned at start", self._c("core.pinned_dimensions")],
                    ],
                    title="access paths",
                )
            )
        if self.compile_spans or self.execute_spans:
            lines.append("")
            lines.append(
                format_table(
                    ["phase", "count", "total s"],
                    [
                        ["compile", self.compile_spans, f"{self.compile_seconds:.4f}"],
                        ["execute", self.execute_spans, f"{self.execute_seconds:.4f}"],
                    ],
                    title="serve phases",
                )
            )
        lines.append("")
        lines.append(
            f"optimizer locations in trace: {self.optimized_locations:g} "
            f"({self.optimizer_calls:g} one-location calls, "
            f"{self.batched_locations:g} batched across "
            f"{self._c('optimizer.batch_calls'):g} slab runs)"
        )
        return "\n".join(lines)


def summarize_serving(records: Iterable[Dict[str, Any]]) -> ServingSummary:
    """Condense a record stream into the serving-layer account.

    Counters arrive either as flushed ``counter`` records (JSONL traces)
    or can be injected directly by building :class:`ServingSummary` from
    a live tracer snapshot.
    """
    summary = ServingSummary()
    for record in records:
        kind = record.get("type")
        if kind == "counter":
            name = record["name"]
            if name.startswith(
                ("serve.", "optimizer.", "batchopt.", "par.", "executor.", "core.")
            ):
                summary.counters[name] = record["value"]
        elif kind == "span_end":
            name = record.get("name")
            if name == "serve.compile":
                summary.compile_spans += 1
                summary.compile_seconds += float(record.get("dur", 0.0))
            elif name == "serve.execute":
                summary.execute_spans += 1
                summary.execute_seconds += float(record.get("dur", 0.0))
            elif name == "serve.template.rebind":
                summary.rebind_spans += 1
                summary.rebind_seconds += float(record.get("dur", 0.0))
    return summary


def read_trace(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL trace file written by a :class:`JsonlSink`."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def summarize_trace(records: Iterable[Dict[str, Any]]) -> TraceSummary:
    """Condense a record stream into a :class:`TraceSummary`.

    The per-contour account is rebuilt purely from ``runtime.execution``
    events — plus the probe charge on the run's initial ``runtime.qrun``
    event — so it reproduces the run's
    :class:`~repro.core.runtime.BouquetRunResult` figures exactly.
    """
    accounts: Dict[int, ContourAccount] = {}
    total_cost = 0.0
    execution_count = 0
    completed = False
    final_plan_id: Optional[int] = None
    counters: Dict[str, float] = {}
    timings: Dict[str, Dict[str, float]] = {}
    spans: List[Dict[str, Any]] = []
    pinned: Dict[str, float] = {}
    probe_cost = 0.0
    for record in records:
        kind = record.get("type")
        if (
            kind == "event"
            and record.get("name") == "runtime.qrun"
            and "probe_cost" in record["attrs"]
        ):
            # The run's starting point: what the substrate had measured.
            attrs = record["attrs"]
            probe_cost += float(attrs["probe_cost"])
            total_cost += float(attrs["probe_cost"])
            pinned.update(attrs["pinned"])
        elif kind == "event" and record.get("name") == "runtime.execution":
            attrs = record["attrs"]
            contour = int(attrs["contour"])
            acct = accounts.get(contour)
            if acct is None:
                acct = accounts[contour] = ContourAccount(contour=contour)
            acct.budget = float(attrs["budget"])
            acct.executions += 1
            execution_count += 1
            if attrs.get("spilled"):
                acct.spilled += 1
            acct.cost_spent += float(attrs["cost_spent"])
            total_cost += float(attrs["cost_spent"])
            for pid in attrs.get("learned", ()):
                if pid not in acct.learned_pids:
                    acct.learned_pids.append(pid)
            if attrs.get("completed") and not attrs.get("spilled"):
                acct.completed = True
                acct.final_plan_id = int(attrs["plan"])
                completed = True
                final_plan_id = int(attrs["plan"])
        elif kind == "span_end":
            spans.append(record)
        elif kind == "counter":
            counters[record["name"]] = record["value"]
        elif kind == "timing":
            timings[record["name"]] = {
                key: record[key] for key in ("count", "total", "min", "max", "mean")
            }
    return TraceSummary(
        contours=[accounts[c] for c in sorted(accounts)],
        total_cost=total_cost,
        execution_count=execution_count,
        completed=completed,
        final_plan_id=final_plan_id,
        counters=counters,
        timings=timings,
        spans=spans,
        pinned=pinned,
        probe_cost=probe_cost,
    )
