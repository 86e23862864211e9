"""Serving-layer smoke bench: compile-cache a canned workload twice.

The canonical deployment check for :mod:`repro.serve`: run a small
canned workload through a :class:`~repro.serve.BouquetServer` cold, then
run the identical workload again and verify the §4.2 amortization
actually materialized — every second-pass request must be answered from
the artifact cache, the optimizer must not be invoked at all, and the
warm pass must be at least ``min_speedup``× faster end to end.

A third pass then injects a small statistics drift and calls
:meth:`~repro.serve.BouquetServer.refresh_statistics`: the patch path
must carry every cached artifact across the fingerprint change
(``serve.cache.patched``), so the post-refresh pass is again all cache
hits with zero optimizer work.

A final taxonomy pass drives one request down each arm of the outcome
ladder — answered (``ok``), admission-rejected (``shed``), NAT-degraded
(``degraded``), and unparseable (``failed``) — and asserts the four
stay *distinct* statuses with their expected ``error_code``\\ s.
``make serve-smoke`` / ``repro serve-smoke`` gate on all of it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..api import BouquetConfig, Catalog
from ..catalog.tpch import tpch_generator_spec, tpch_schema
from ..datagen.database import Database
from ..drift import perturb_statistics
from ..obs.tracer import MemorySink, Tracer
from ..runtime import SimulatedRuntime
from ..serve.admission import TenantQuota
from ..serve.cache import BouquetArtifactStore
from ..serve.envelope import ServeRequest
from ..serve.front import ServeGateway
from ..serve.server import BouquetServer

__all__ = ["CANNED_WORKLOAD", "ServeSmokeReport", "run_serve_smoke"]


def _optimized_locations(tracer: Tracer) -> float:
    """ESS locations the optimizer planned.

    Compiles account their work as ``optimizer.batched_locations``;
    ``optimizer.calls`` counts the scalar calls that remain — band
    stragglers, dimensioning sweeps and the NAT fallback.
    """
    return tracer.counters.get("optimizer.calls", 0) + tracer.counters.get(
        "optimizer.batched_locations", 0
    )

#: The canned workload: a handful of distinct SPJ shapes over TPC-H.
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


@dataclass
class ServeSmokeReport:
    """Outcome of one serve-smoke run (cold pass vs. warm pass)."""

    queries: int
    cold_seconds: float
    warm_seconds: float
    cold_optimizer_calls: float
    warm_optimizer_calls: float
    warm_sources: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    min_speedup: float = 5.0
    refresh_optimizer_calls: float = 0.0
    refresh_sources: List[str] = field(default_factory=list)
    patched_artifacts: float = 0.0
    #: taxonomy pass: scenario -> (status, error_code) actually observed
    taxonomy: Dict[str, List[Optional[str]]] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        return self.cold_seconds / max(self.warm_seconds, 1e-12)

    @property
    def all_warm_hits(self) -> bool:
        return bool(self.warm_sources) and all(
            source in ("memory", "disk") for source in self.warm_sources
        )

    @property
    def all_refresh_hits(self) -> bool:
        return bool(self.refresh_sources) and all(
            source in ("memory", "disk") for source in self.refresh_sources
        )

    @property
    def taxonomy_ok(self) -> bool:
        """The four outcome arms must be observed as *distinct* statuses
        with their contracted error codes."""
        expected = {
            "ok": ("ok", None),
            "shed": ("shed", "shed-quota"),
            "degraded": ("degraded", "cached-only-miss"),
            "failed": ("failed", "parse-error"),
        }
        return all(
            tuple(self.taxonomy.get(name, (None, None))) == want
            for name, want in expected.items()
        )

    @property
    def ok(self) -> bool:
        return (
            self.all_warm_hits
            and self.warm_optimizer_calls == 0
            and self.speedup >= self.min_speedup
            and self.all_refresh_hits
            and self.refresh_optimizer_calls == 0
            and self.patched_artifacts >= self.queries
            and self.taxonomy_ok
        )

    def describe(self) -> str:
        from .reporting import format_table

        rows = [
            ["queries", self.queries],
            ["cold pass", f"{self.cold_seconds:.4f}s"],
            ["warm pass", f"{self.warm_seconds:.4f}s"],
            ["speedup", f"{self.speedup:.1f}x (need >= {self.min_speedup:g}x)"],
            ["cold optimizer calls", f"{self.cold_optimizer_calls:g}"],
            ["warm optimizer calls", f"{self.warm_optimizer_calls:g}"],
            ["warm sources", ",".join(self.warm_sources)],
            ["patched artifacts", f"{self.patched_artifacts:g}"],
            ["post-refresh optimizer calls", f"{self.refresh_optimizer_calls:g}"],
            ["post-refresh sources", ",".join(self.refresh_sources)],
            [
                "status taxonomy",
                "; ".join(
                    f"{name}={status}/{code or '-'}"
                    for name, (status, code) in sorted(self.taxonomy.items())
                )
                + (" (distinct)" if self.taxonomy_ok else " (NOT distinct)"),
            ],
            ["verdict", "OK" if self.ok else "FAIL"],
        ]
        return format_table(["serve smoke", "value"], rows, title="serve smoke")


def run_serve_smoke(
    scale: float = 0.002,
    seed: int = 7,
    stats_sample: int = 800,
    resolution: int = 32,
    store_root: Optional[str] = None,
    min_speedup: float = 5.0,
    tracer: Optional[Tracer] = None,
) -> ServeSmokeReport:
    """Compile-cache :data:`CANNED_WORKLOAD` twice and report the gap."""
    tracer = tracer if tracer is not None else Tracer(MemorySink())
    schema = tpch_schema(scale)
    database = Database.generate(schema, tpch_generator_spec(scale), seed=seed)
    statistics = database.build_statistics(sample_size=stats_sample, seed=seed)
    catalog = Catalog(schema, statistics=statistics, database=database)
    config = BouquetConfig(resolution=resolution)
    store = BouquetArtifactStore(root=store_root, tracer=tracer)
    with BouquetServer(
        catalog, config=config, store=store, tracer=tracer
    ) as server:
        calls0 = _optimized_locations(tracer)
        t0 = time.perf_counter()
        for sql in CANNED_WORKLOAD:
            server.compile(sql)
        cold_seconds = time.perf_counter() - t0
        calls1 = _optimized_locations(tracer)

        warm_sources = []
        t0 = time.perf_counter()
        for sql in CANNED_WORKLOAD:
            _, source = server.compile(sql)
            warm_sources.append(source)
        warm_seconds = time.perf_counter() - t0
        calls2 = _optimized_locations(tracer)

        # Statistics drift: the fingerprint changes, but with a live
        # database the compile inputs do not — the refresh must patch
        # every artifact across rather than recompile it.
        drifted = perturb_statistics(
            statistics, "part", "p_retailprice", scale=1.05
        )
        server.refresh_statistics(drifted)
        refresh_sources = []
        for sql in CANNED_WORKLOAD:
            _, source = server.compile(sql)
            refresh_sources.append(source)
        calls3 = _optimized_locations(tracer)

        # Taxonomy pass: one request down each outcome arm, through a
        # gateway whose frozen virtual clock makes admission
        # deterministic (burst 1, no refill -> the second request is
        # guaranteed to shed).
        gateway = ServeGateway(
            server,
            runtime=SimulatedRuntime(),
            default_quota=TenantQuota(rate=1.0, burst=1.0, max_queue=4),
            tracer=tracer,
        )
        probes = {
            "ok": gateway.handle(CANNED_WORKLOAD[0]),
            "shed": gateway.handle(CANNED_WORKLOAD[1]),
            "degraded": server.serve_request(
                ServeRequest(
                    query="select * from part where p_retailprice < 777",
                    cached_only=True,
                )
            ),
            "failed": server.serve_request(
                ServeRequest(query="definitely not sql (")
            ),
        }
        taxonomy = {
            name: [response.status, response.error_code]
            for name, response in probes.items()
        }
    return ServeSmokeReport(
        queries=len(CANNED_WORKLOAD),
        cold_seconds=cold_seconds,
        warm_seconds=warm_seconds,
        cold_optimizer_calls=calls1 - calls0,
        warm_optimizer_calls=calls2 - calls1,
        warm_sources=warm_sources,
        counters=dict(tracer.counters),
        min_speedup=min_speedup,
        refresh_optimizer_calls=calls3 - calls2,
        refresh_sources=refresh_sources,
        patched_artifacts=tracer.counters.get("serve.cache.patched", 0),
        taxonomy=taxonomy,
    )
