"""Simulated serving load: thousands of concurrent sessions replayed
against the multi-tenant front-end on a virtual clock, every outcome
accounted.

A discrete-event simulation on a :class:`SimulatedRuntime` — arrivals,
queue waits, and service completions are events on a virtual clock, so
thousands of concurrent sessions replay deterministically in
milliseconds of wall time.  The *real*
:class:`~repro.serve.front.ServeGateway` and
:class:`~repro.serve.admission.AdmissionController` run unmodified;
only the bouquet backend is a service-time model.

The hard gate: **zero silent drops** — every request issued receives
exactly one typed :class:`~repro.serve.ServeResponse` (shed counts as a
response; a missing or untyped one fails the run).  The gates are
asserted in ``tests/serve/test_load_harness.py``; this module is their
scaffolding and the seed of the fault-injected virtual-time harness
(ROADMAP item 3).
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import ReproError
from repro.obs.tracer import MemorySink, Tracer
from repro.serve.admission import TenantQuota
from repro.serve.envelope import STATUSES, ServeRequest, ServeResponse
from repro.serve.front import ServeGateway

# ----------------------------------------------------------------------
# Virtual clock
# ----------------------------------------------------------------------


class SimulatedRuntime:
    """A virtual clock over a deterministic event heap.

    Passed to the gateway (or the admission controller) as ``runtime=``
    in place of the real clock.  Events are ordered by virtual time and
    FIFO within a tick (a sequence counter), so a given seed replays
    bit-identically on any machine:

    * :meth:`schedule` — run a callback ``delay`` virtual seconds from now;
    * :meth:`run_until_idle` — pop events in (time, seq) order, advancing
      the clock to each event's timestamp, until the heap drains;
    * :meth:`advance` — move the clock with no event (think time).
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._seq = 0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move the virtual clock forward; returns the new time."""
        if seconds < 0:
            raise ReproError("simulated clock cannot run backwards")
        self._now += seconds
        return self._now

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at virtual time ``now() + delay``."""
        if delay < 0:
            raise ReproError("cannot schedule an event in the past")
        self._seq += 1
        heapq.heappush(
            self._heap, (self._now + delay, self._seq, lambda: fn(*args))
        )

    @property
    def pending(self) -> int:
        return len(self._heap)

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Drain the event heap in deterministic order; returns the
        number of events fired.  ``max_events`` is a runaway backstop."""
        fired = 0
        while self._heap:
            if fired >= max_events:
                raise ReproError(
                    f"simulated runtime exceeded {max_events} events"
                )
            at, _seq, callback = heapq.heappop(self._heap)
            # An event due before the current time (the clock was
            # advanced inside a callback) fires at the current time.
            if at > self._now:
                self._now = at
            callback()
            fired += 1
        return fired


# ----------------------------------------------------------------------
# Workload + backend model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LoadSpec:
    """Shape of one load run."""

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


#: Asymmetric tenant quotas for the default spec: ``alpha`` is
#: provisioned for the offered load; ``beta`` is deliberately tight so
#: the shed path and the degrade ladder both fire.
DEFAULT_QUOTAS = {
    "alpha": TenantQuota(rate=4000.0, burst=1500.0, max_queue=1200),
    "beta": TenantQuota(rate=400.0, burst=120.0, max_queue=160),
}


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
    ):
        self.compile_seconds = compile_seconds
        self.hit_seconds = hit_seconds
        self.nat_seconds = nat_seconds
        self.fail_every = fail_every
        self.budget_floor = budget_floor
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
        """Backend protocol for :class:`ServeGateway`."""
        return self.simulate(request)[1]


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
    """Outcome of one load run — virtual-clock figures only, so equal
    inputs give an equal report."""

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
    def ok(self) -> bool:
        return (
            self.silent_drops == 0
            and self.untyped == 0
            and self.responses > 0
            and self.answered > 0
            and all(status in STATUSES for status in self.statuses)
            and self.peak_sessions >= self.min_concurrent
        )


def _build_report(
    spec: LoadSpec,
    requests: int,
    responses: List[ServeResponse],
    peak_sessions: int,
    hit_rate: float,
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
# The replay (discrete-event, virtual clock)
# ----------------------------------------------------------------------


def run_simulated_load(
    spec: Optional[LoadSpec] = None,
    *,
    quotas: Optional[Mapping[str, TenantQuota]] = None,
    degrade_at: float = 0.7,
    degraded_budget: Optional[float] = 50.0,
    min_concurrent: int = 0,
) -> ServeLoadReport:
    """Replay the workload as a deterministic discrete-event simulation.

    The real gateway/admission stack runs on a virtual clock; a given
    (spec, quotas) pair replays bit-identically on any machine.
    """
    spec = spec if spec is not None else LoadSpec()
    tracer = Tracer(MemorySink())
    runtime = SimulatedRuntime()
    backend = SimulatedBouquetBackend(fail_every=211)
    gateway = ServeGateway(
        backend,
        runtime=runtime,
        quotas=quotas,
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

    runtime.run_until_idle()
    return _build_report(
        spec=spec,
        requests=state["issued"],
        responses=responses,
        peak_sessions=state["peak"],
        hit_rate=backend.hit_rate,
        virtual_seconds=runtime.now(),
        tracer=tracer,
        min_concurrent=min_concurrent,
    )
