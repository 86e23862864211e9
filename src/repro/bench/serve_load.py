"""Serving load harness: replay thousands of concurrent sessions
against the multi-tenant front-end and account every outcome.

Two execution modes share one workload generator, one gateway stack,
and one report shape:

* **simulated** (the fast path, ``repro serve-load --smoke``): a
  discrete-event simulation on a
  :class:`~repro.runtime.simulated.SimulatedRuntime` — arrivals, queue
  waits, and service completions are events on a virtual clock, so
  thousands of concurrent sessions replay deterministically in
  milliseconds of wall time.  The *real*
  :class:`~repro.serve.front.ServeGateway` and
  :class:`~repro.serve.admission.AdmissionController` run unmodified;
  only the bouquet backend is a service-time model.
* **asyncio** (the default path, ``repro serve-load``): the real
  :class:`~repro.serve.http.BouquetFrontEnd` on a loopback socket,
  sessions as asyncio tasks driving
  :class:`~repro.serve.http.AsyncServeClient` over keep-alive HTTP —
  optionally against a genuine :class:`~repro.serve.BouquetServer`
  (``--real-server``) for end-to-end numbers.

The hard gate, in every mode: **zero silent drops** — every request
issued receives exactly one typed :class:`~repro.serve.ServeResponse`
(shed counts as a response; a missing or untyped one fails the run).
``--out PATH`` writes the percentiles, shed/degrade counts, and
cache-hit rates as JSON; the run exits non-zero if any gate fails.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..exceptions import ReproError
from ..obs.tracer import MemorySink, Tracer
from ..runtime import AsyncioRuntime, SimulatedRuntime
from ..serve.admission import TenantQuota
from ..serve.envelope import STATUSES, ServeRequest, ServeResponse
from ..serve.front import ServeGateway
from ..serve.http import AsyncServeClient, BouquetFrontEnd

__all__ = [
    "LoadSpec",
    "ServeLoadReport",
    "SimulatedBouquetBackend",
    "main",
    "run_async_load",
    "run_simulated_load",
]


# ----------------------------------------------------------------------
# Workload + backend model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LoadSpec:
    """Shape of one load run (both modes consume the same spec)."""

    sessions: int = 2400
    requests_per_session: int = 3
    templates: int = 8
    tenants: Mapping[str, float] = field(
        default_factory=lambda: {"alpha": 0.72, "beta": 0.28}
    )
    ramp_seconds: float = 0.25  # all sessions start inside this window
    think_seconds: float = 0.2  # mean gap between a session's requests
    workers: int = 48  # backend service slots
    seed: int = 42

    def __post_init__(self):
        if self.sessions < 1 or self.requests_per_session < 1:
            raise ReproError("load spec: needs at least one session/request")
        if self.templates < 1:
            raise ReproError("load spec: needs at least one query template")
        if not self.tenants:
            raise ReproError("load spec: needs at least one tenant")

    def template_sql(self, index: int) -> str:
        """Distinct SPJ template texts — distinct artifact-cache keys.

        Indexes below ``templates`` are the hot set; the workload
        generator also draws a long tail of cold indexes above it."""
        return (
            "select * from lineitem, orders "
            "where l_orderkey = o_orderkey "
            f"and o_totalprice < {100000 + 5000 * index}"
        )


class SimulatedBouquetBackend:
    """A service-time model of :class:`~repro.serve.BouquetServer`.

    Reproduces the serving ladder's *shape* — first request per template
    pays a compile, repeats hit the artifact cache, ``cached_only``
    misses degrade to the NAT path — with virtual durations instead of
    real bouquet work.  Deterministic: the only state is the template
    cache and a request counter (``fail_every`` injects periodic
    ``execute-failed`` responses so the failed status stays exercised).
    """

    def __init__(
        self,
        *,
        compile_seconds: float = 0.5,
        hit_seconds: float = 0.004,
        nat_seconds: float = 0.02,
        fail_every: int = 0,
        budget_floor: float = 40.0,
        sleep: Optional[Callable[[float], None]] = None,
    ):
        self.compile_seconds = compile_seconds
        self.hit_seconds = hit_seconds
        self.nat_seconds = nat_seconds
        self.fail_every = fail_every
        self.budget_floor = budget_floor
        self._sleep = sleep
        self.compiled: set = set()
        self.hits = 0
        self.misses = 0
        self.requests = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def simulate(self, request: ServeRequest) -> Tuple[float, ServeResponse]:
        """Returns (virtual service seconds, typed response)."""
        self.requests += 1
        sql = request.sql or ""
        name = sql[:40]
        if self.fail_every and self.requests % self.fail_every == 0:
            return self.hit_seconds, ServeResponse(
                status="failed",
                query_name=name,
                error="injected execution fault",
                error_code="execute-failed",
            )
        if request.budget is not None and request.budget < self.budget_floor:
            return self.hit_seconds, ServeResponse(
                status="budget-exhausted",
                query_name=name,
                error=f"budget {request.budget:g} below plan cost floor",
                error_code="budget-exhausted",
            )
        if sql in self.compiled:
            self.hits += 1
            return self.hit_seconds, ServeResponse(
                status="ok", cache="memory", query_name=name, rows=100
            )
        if request.cached_only:
            # The overload ladder: no compile allowed, degrade to NAT.
            self.misses += 1
            return self.nat_seconds, ServeResponse(
                status="degraded",
                query_name=name,
                error="cached-only miss under overload",
                error_code="cached-only-miss",
                rows=100,
            )
        self.misses += 1
        self.compiled.add(sql)
        return self.compile_seconds, ServeResponse(
            status="ok", cache="none", query_name=name, rows=100
        )

    def serve_request(self, request: ServeRequest) -> ServeResponse:
        """Backend protocol for :class:`ServeGateway` — blocks for the
        service time when a real sleeper was injected (asyncio mode)."""
        seconds, response = self.simulate(request)
        if self._sleep is not None:
            self._sleep(seconds)
        return response


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = max(0, min(len(ordered) - 1, int(round(q / 100.0 * len(ordered))) - 1))
    return ordered[index]


@dataclass
class ServeLoadReport:
    """Outcome of one load run; shape is identical across modes."""

    mode: str
    sessions: int
    requests: int
    responses: int
    peak_sessions: int
    statuses: Dict[str, int] = field(default_factory=dict)
    error_codes: Dict[str, int] = field(default_factory=dict)
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    hit_rate: float = 0.0
    wall_seconds: float = 0.0
    virtual_seconds: float = 0.0
    untyped: int = 0  # non-ok responses missing an error_code
    counters: Dict[str, float] = field(default_factory=dict)
    min_concurrent: int = 0  # gate: peak concurrent sessions required

    @property
    def silent_drops(self) -> int:
        return self.requests - self.responses

    @property
    def answered(self) -> int:
        return self.statuses.get("ok", 0) + self.statuses.get("degraded", 0)

    @property
    def shed(self) -> int:
        return self.statuses.get("shed", 0)

    @property
    def shed_rate(self) -> float:
        return self.shed / self.responses if self.responses else 0.0

    @property
    def ok(self) -> bool:
        return (
            self.silent_drops == 0
            and self.untyped == 0
            and self.responses > 0
            and self.answered > 0
            and all(status in STATUSES for status in self.statuses)
            and self.peak_sessions >= self.min_concurrent
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "sessions": self.sessions,
            "requests": self.requests,
            "responses": self.responses,
            "silent_drops": self.silent_drops,
            "untyped": self.untyped,
            "peak_sessions": self.peak_sessions,
            "min_concurrent": self.min_concurrent,
            "statuses": dict(sorted(self.statuses.items())),
            "error_codes": dict(sorted(self.error_codes.items())),
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "shed_rate": self.shed_rate,
            "hit_rate": self.hit_rate,
            "wall_seconds": self.wall_seconds,
            "virtual_seconds": self.virtual_seconds,
            "counters": dict(sorted(self.counters.items())),
            "ok": self.ok,
        }

    def describe(self) -> str:
        from .reporting import format_table

        statuses = ", ".join(
            f"{name}={count}" for name, count in sorted(self.statuses.items())
        )
        rows = [
            ["mode", self.mode],
            ["sessions (peak concurrent)", f"{self.sessions} ({self.peak_sessions})"],
            ["requests -> responses", f"{self.requests} -> {self.responses}"],
            ["silent drops", self.silent_drops],
            ["statuses", statuses],
            ["latency p50/p95/p99",
             f"{self.latency_p50 * 1e3:.1f} / {self.latency_p95 * 1e3:.1f} / "
             f"{self.latency_p99 * 1e3:.1f} ms"],
            ["shed rate", f"{self.shed_rate:.1%}"],
            ["cache hit rate", f"{self.hit_rate:.1%}"],
            ["wall clock", f"{self.wall_seconds:.3f}s"],
            ["virtual clock", f"{self.virtual_seconds:.3f}s"],
            ["verdict", "OK" if self.ok else "FAIL"],
        ]
        return format_table(
            ["serve load", "value"], rows, title=f"serve load ({self.mode})"
        )


def _build_report(
    mode: str,
    spec: LoadSpec,
    requests: int,
    responses: List[ServeResponse],
    peak_sessions: int,
    hit_rate: float,
    wall_seconds: float,
    virtual_seconds: float,
    tracer: Tracer,
    min_concurrent: int,
) -> ServeLoadReport:
    statuses: Dict[str, int] = {}
    error_codes: Dict[str, int] = {}
    untyped = 0
    latencies: List[float] = []
    for response in responses:
        statuses[response.status] = statuses.get(response.status, 0) + 1
        if response.status != "ok":
            if response.error_code is None:
                untyped += 1
            else:
                error_codes[response.error_code] = (
                    error_codes.get(response.error_code, 0) + 1
                )
        if response.answered:
            latencies.append(response.latency_seconds)
    return ServeLoadReport(
        mode=mode,
        sessions=spec.sessions,
        requests=requests,
        responses=len(responses),
        peak_sessions=peak_sessions,
        statuses=statuses,
        error_codes=error_codes,
        latency_p50=_percentile(latencies, 50),
        latency_p95=_percentile(latencies, 95),
        latency_p99=_percentile(latencies, 99),
        hit_rate=hit_rate,
        wall_seconds=wall_seconds,
        virtual_seconds=virtual_seconds,
        untyped=untyped,
        counters={
            name: value
            for name, value in sorted(tracer.counters.items())
            if name.startswith("serve.front.")
        },
        min_concurrent=min_concurrent,
    )


def _session_scripts(
    spec: LoadSpec,
) -> List[Tuple[str, float, List[Tuple[int, float, Optional[float]]]]]:
    """Pre-generate every session up front (tenant, start time, and the
    per-request (template, think-gap, budget) script), so randomness is
    consumed in a fixed order regardless of event interleaving.

    90% of requests draw from the hot template set; 10% draw a cold
    long-tail template (cache misses keep happening under load, so the
    overload ladder's cached-only path is actually exercised).  2% of
    requests carry a deliberately tight cost budget."""
    rng = random.Random(spec.seed)
    names = list(spec.tenants)
    weights = [spec.tenants[name] for name in names]
    scripts = []
    for _ in range(spec.sessions):
        tenant = rng.choices(names, weights=weights, k=1)[0]
        start = rng.uniform(0.0, spec.ramp_seconds)
        steps = []
        for _ in range(spec.requests_per_session):
            if rng.random() < 0.1:
                template = spec.templates + rng.randrange(spec.templates * 4)
            else:
                template = rng.randrange(spec.templates)
            budget = 30.0 if rng.random() < 0.02 else None
            steps.append(
                (template, spec.think_seconds * rng.uniform(0.5, 1.5), budget)
            )
        scripts.append((tenant, start, steps))
    return scripts


# ----------------------------------------------------------------------
# Simulated mode (discrete-event, virtual clock)
# ----------------------------------------------------------------------


def run_simulated_load(
    spec: Optional[LoadSpec] = None,
    *,
    quotas: Optional[Mapping[str, TenantQuota]] = None,
    default_quota: Optional[TenantQuota] = None,
    degrade_at: float = 0.7,
    degraded_budget: Optional[float] = 50.0,
    backend: Optional[SimulatedBouquetBackend] = None,
    min_concurrent: int = 0,
    tracer: Optional[Tracer] = None,
) -> ServeLoadReport:
    """Replay the workload as a deterministic discrete-event simulation.

    The real gateway/admission stack runs on a virtual clock; a given
    (spec, quotas) pair replays bit-identically on any machine.
    """
    spec = spec if spec is not None else LoadSpec()
    tracer = tracer if tracer is not None else Tracer(MemorySink())
    runtime = SimulatedRuntime()
    backend = (
        backend
        if backend is not None
        else SimulatedBouquetBackend(fail_every=211)
    )
    gateway = ServeGateway(
        backend,
        runtime=runtime,
        quotas=quotas,
        default_quota=default_quota,
        degrade_at=degrade_at,
        degraded_budget=degraded_budget,
        tracer=tracer,
    )
    scripts = _session_scripts(spec)

    responses: List[ServeResponse] = []
    pending: deque = deque()  # admitted tickets waiting for a slot
    state = {
        "free": spec.workers,
        "issued": 0,
        "active": 0,
        "peak": 0,
        "left": [len(steps) for _, _, steps in scripts],
    }

    def pump() -> None:
        while state["free"] > 0 and pending:
            state["free"] -= 1
            ticket, sid = pending.popleft()
            ticket.started_at = runtime.now()
            seconds, response = backend.simulate(
                gateway.effective_request(ticket)
            )
            runtime.schedule(seconds, complete, ticket, response, sid)

    def settle(sid: int) -> None:
        state["left"][sid] -= 1
        if state["left"][sid] == 0:
            state["active"] -= 1

    def complete(ticket, response: ServeResponse, sid: int) -> None:
        responses.append(gateway.finish(ticket, response))
        state["free"] += 1
        settle(sid)
        pump()

    def issue(sid: int, step: int) -> None:
        tenant, _, steps = scripts[sid]
        if step == 0:
            state["active"] += 1
            state["peak"] = max(state["peak"], state["active"])
        template, think, budget = steps[step]
        if step + 1 < len(steps):
            runtime.schedule(think, issue, sid, step + 1)
        state["issued"] += 1
        request = ServeRequest(
            query=spec.template_sql(template),
            tenant=tenant,
            request_id=f"s{sid:05d}.r{step}",
            budget=budget,
        )
        ticket, shed = gateway.admit(request)
        if shed is not None:
            responses.append(shed)
            settle(sid)
            return
        pending.append((ticket, sid))
        pump()

    for sid, (_, start, _) in enumerate(scripts):
        runtime.schedule(start, issue, sid, 0)

    wall_start = time.perf_counter()
    runtime.run_until_idle()
    wall_seconds = time.perf_counter() - wall_start
    return _build_report(
        mode="simulated",
        spec=spec,
        requests=state["issued"],
        responses=responses,
        peak_sessions=state["peak"],
        hit_rate=backend.hit_rate,
        wall_seconds=wall_seconds,
        virtual_seconds=runtime.now(),
        tracer=tracer,
        min_concurrent=min_concurrent,
    )


# ----------------------------------------------------------------------
# Asyncio mode (real clock, real sockets)
# ----------------------------------------------------------------------


def _build_real_server(tracer: Tracer):
    """A small but genuine BouquetServer for end-to-end load numbers."""
    from ..api import BouquetConfig, Catalog
    from ..catalog.tpch import tpch_generator_spec, tpch_schema
    from ..datagen.database import Database
    from ..serve.cache import BouquetArtifactStore
    from ..serve.server import BouquetServer

    scale = 0.002
    schema = tpch_schema(scale)
    database = Database.generate(schema, tpch_generator_spec(scale), seed=7)
    statistics = database.build_statistics(sample_size=800, seed=7)
    catalog = Catalog(schema, statistics=statistics, database=database)
    store = BouquetArtifactStore(root=None, tracer=tracer)
    return BouquetServer(
        catalog, config=BouquetConfig(resolution=16), store=store, tracer=tracer
    )


async def _async_load(
    spec: LoadSpec,
    gateway: ServeGateway,
    runtime: AsyncioRuntime,
    think_scale: float,
) -> Tuple[int, List[ServeResponse], int]:
    front = BouquetFrontEnd(gateway, runtime=runtime)
    scripts = _session_scripts(spec)
    responses: List[ServeResponse] = []
    state = {"issued": 0, "active": 0, "peak": 0}

    async def session(sid: int) -> None:
        tenant, start, steps = scripts[sid]
        await asyncio.sleep(start)
        state["active"] += 1
        state["peak"] = max(state["peak"], state["active"])
        try:
            async with AsyncServeClient(front.host, front.port) as client:
                for step, (template, think, budget) in enumerate(steps):
                    state["issued"] += 1
                    response = await client.serve(
                        ServeRequest(
                            query=spec.template_sql(template),
                            tenant=tenant,
                            request_id=f"s{sid:05d}.r{step}",
                            budget=budget,
                        )
                    )
                    responses.append(response)
                    if step + 1 < len(steps):
                        await asyncio.sleep(think * think_scale)
        finally:
            state["active"] -= 1

    async with front:
        await asyncio.gather(*(session(sid) for sid in range(spec.sessions)))
    return state["issued"], responses, state["peak"]


def run_async_load(
    spec: Optional[LoadSpec] = None,
    *,
    real_server: bool = False,
    quotas: Optional[Mapping[str, TenantQuota]] = None,
    default_quota: Optional[TenantQuota] = None,
    degrade_at: float = 0.7,
    degraded_budget: Optional[float] = 50.0,
    min_concurrent: int = 0,
    tracer: Optional[Tracer] = None,
) -> ServeLoadReport:
    """Replay the workload over real sockets on a real event loop.

    ``real_server=False`` serves from the service-time model (scaled to
    milliseconds) and measures the front-end itself; ``real_server=True``
    runs a genuine BouquetServer behind the gateway for end-to-end
    numbers (much slower — compiles are real).
    """
    spec = spec if spec is not None else LoadSpec(sessions=200)
    tracer = tracer if tracer is not None else Tracer(MemorySink())
    runtime = AsyncioRuntime(max_workers=min(spec.workers, 32))
    backend_model: Optional[SimulatedBouquetBackend] = None
    server = None
    if real_server:
        server = _build_real_server(tracer)
        backend = server
    else:
        backend_model = SimulatedBouquetBackend(
            compile_seconds=0.02,
            hit_seconds=0.001,
            nat_seconds=0.002,
            fail_every=211,
            sleep=time.sleep,
        )
        backend = backend_model
    gateway = ServeGateway(
        backend,
        runtime=runtime,
        quotas=quotas,
        default_quota=default_quota,
        degrade_at=degrade_at,
        degraded_budget=degraded_budget,
        tracer=tracer,
    )
    wall_start = time.perf_counter()
    try:
        issued, responses, peak = asyncio.run(
            _async_load(spec, gateway, runtime, think_scale=0.1)
        )
    finally:
        runtime.shutdown()
        if server is not None:
            server.close()
    wall_seconds = time.perf_counter() - wall_start
    if backend_model is not None:
        hit_rate = backend_model.hit_rate
    else:
        hits = tracer.counters.get("serve.cache.hit_memory", 0) + (
            tracer.counters.get("serve.cache.hit_disk", 0)
        )
        hit_rate = hits / issued if issued else 0.0
    return _build_report(
        mode="asyncio-real" if real_server else "asyncio-model",
        spec=spec,
        requests=issued,
        responses=responses,
        peak_sessions=peak,
        hit_rate=hit_rate,
        wall_seconds=wall_seconds,
        virtual_seconds=0.0,
        tracer=tracer,
        min_concurrent=min_concurrent,
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

#: Default asymmetric tenant quotas: ``alpha`` is provisioned for the
#: offered load; ``beta`` is deliberately tight so the shed path and
#: the degrade ladder both fire under the default spec.
DEFAULT_QUOTAS = {
    "alpha": TenantQuota(rate=4000.0, burst=1500.0, max_queue=1200),
    "beta": TenantQuota(rate=400.0, burst=120.0, max_queue=160),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.serve_load",
        description="Load-test the multi-tenant serving front-end.",
    )
    parser.add_argument("--sessions", type=int, default=2400)
    parser.add_argument("--requests", type=int, default=3)
    parser.add_argument("--workers", type=int, default=48)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--min-concurrent",
        type=int,
        default=2000,
        help="gate: peak concurrent simulated sessions required",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="simulated mode only (the fast CI gate)",
    )
    parser.add_argument(
        "--real-server",
        action="store_true",
        help="also run the asyncio pass against a genuine BouquetServer",
    )
    parser.add_argument("--out", default=None, help="write the report as JSON here")
    options = parser.parse_args(argv)

    spec = LoadSpec(
        sessions=options.sessions,
        requests_per_session=options.requests,
        workers=options.workers,
        seed=options.seed,
    )
    reports = [
        run_simulated_load(
            spec, quotas=DEFAULT_QUOTAS, min_concurrent=options.min_concurrent
        )
    ]
    if not options.smoke:
        async_spec = LoadSpec(
            sessions=min(options.sessions, 200),
            requests_per_session=options.requests,
            workers=options.workers,
            seed=options.seed,
        )
        reports.append(run_async_load(async_spec, quotas=DEFAULT_QUOTAS))
        if options.real_server:
            real_spec = LoadSpec(
                sessions=12,
                requests_per_session=options.requests,
                templates=3,
                workers=8,
                seed=options.seed,
            )
            reports.append(run_async_load(real_spec, real_server=True))
    for report in reports:
        print(report.describe())
    if options.out:
        payload = {
            "format": "repro.bench.serve.v1",
            "passes": [report.to_dict() for report in reports],
            "ok": all(report.ok for report in reports),
        }
        with open(options.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {options.out}")
    if not all(report.ok for report in reports):
        print("serve load: FAILED gates", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
