"""ServeGateway: admission + the overload ladder + accounting over a
fake backend, all on a virtual clock."""

from __future__ import annotations

import pytest

from repro.exceptions import BouquetError
from repro.obs import MemorySink, Tracer
from repro.serve import ServeGateway, ServeRequest, ServeResponse, TenantQuota
from tests.serve.load_model import SimulatedRuntime

SQL = "select * from part where p_retailprice < 1000"


class FakeBackend:
    """Records every request; replies with a scripted response."""

    def __init__(self, runtime=None, service_seconds=0.0):
        self.requests = []
        self.runtime = runtime
        self.service_seconds = service_seconds
        self.reply = lambda request: ServeResponse(
            status="ok", cache="memory", query_name=request.sql or "", rows=7
        )

    def serve_request(self, request):
        self.requests.append(request)
        if self.runtime is not None and self.service_seconds:
            self.runtime.advance(self.service_seconds)
        return self.reply(request)


@pytest.fixture
def runtime():
    return SimulatedRuntime()


@pytest.fixture
def backend(runtime):
    return FakeBackend(runtime)


def gateway(backend, runtime, **kwargs):
    return ServeGateway(backend, runtime=runtime, **kwargs)


class TestSurface:
    def test_backend_must_speak_the_protocol(self):
        with pytest.raises(BouquetError, match="serve_request"):
            ServeGateway(object())

    def test_handle_stamps_identity(self, backend, runtime):
        gw = gateway(backend, runtime)
        response = gw.handle(
            ServeRequest(query=SQL, tenant="alpha", request_id="r42")
        )
        assert response.ok
        assert response.tenant == "alpha"
        assert response.request_id == "r42"
        assert backend.requests[0].tenant == "alpha"

    def test_bare_sql_is_coerced_to_an_envelope(self, backend, runtime):
        response = gateway(backend, runtime).handle(SQL)
        assert response.ok and response.tenant == "default"

    def test_invalid_request_never_reaches_the_backend(self, backend, runtime):
        gw = gateway(backend, runtime)
        response = gw.handle(ServeRequest(query=SQL, mode="turbo"))
        assert response.failed
        assert response.error_code == "invalid-request"
        assert backend.requests == []
        # The failed-fast path held no queue slot.
        assert gw.admission.depth("default") == 0

    def test_backend_errors_become_typed_failures(self, backend, runtime):
        def explode(request):
            raise BouquetError("synthetic backend fault")

        backend.reply = explode
        response = gateway(backend, runtime).handle(ServeRequest(query=SQL))
        assert response.failed
        assert "synthetic backend fault" in response.error

    def test_slot_released_after_every_outcome(self, backend, runtime):
        gw = gateway(backend, runtime)
        gw.handle(ServeRequest(query=SQL))
        backend.reply = lambda request: ServeResponse(
            status="failed", error="x", error_code="execute-failed"
        )
        gw.handle(ServeRequest(query=SQL))
        assert gw.admission.depth("default") == 0


class TestShedding:
    def test_quota_shed_is_a_typed_response(self, backend, runtime):
        gw = gateway(
            backend,
            runtime,
            default_quota=TenantQuota(rate=1.0, burst=1.0, max_queue=4),
        )
        assert gw.handle(ServeRequest(query=SQL)).ok
        shed = gw.handle(ServeRequest(query=SQL, request_id="r2"))
        assert shed.shed
        assert shed.error_code == "shed-quota"
        assert shed.request_id == "r2"
        assert len(backend.requests) == 1  # the shed request cost no work


class TestOverloadLadder:
    def test_degraded_admission_strips_the_request(self, backend, runtime):
        gw = gateway(
            backend,
            runtime,
            default_quota=TenantQuota(rate=1e6, burst=1e6, max_queue=4),
            degrade_at=0.5,
            degraded_budget=50.0,
        )
        # Hold two slots: occupancy 2/4 = 50% puts the next admit on
        # the ladder.
        t1, _ = gw.admit(ServeRequest(query=SQL))
        t2, _ = gw.admit(ServeRequest(query=SQL))
        ticket, _ = gw.admit(ServeRequest(query=SQL, budget=900.0))
        assert not t1.decision.degraded
        assert ticket.decision.degraded
        effective = gw.effective_request(ticket)
        assert effective.cached_only
        assert effective.budget == 50.0  # min(900, degraded_budget)
        # The caller's envelope is untouched.
        assert not ticket.request.cached_only

    def test_degraded_budget_keeps_the_tighter_cap(self, backend, runtime):
        gw = gateway(
            backend,
            runtime,
            default_quota=TenantQuota(rate=1e6, burst=1e6, max_queue=2),
            degrade_at=0.5,
            degraded_budget=50.0,
        )
        gw.admit(ServeRequest(query=SQL))
        ticket, _ = gw.admit(ServeRequest(query=SQL, budget=10.0))
        assert gw.effective_request(ticket).budget == 10.0

    def test_overload_degradation_is_attributed(self, backend, runtime):
        """A degraded outcome under ladder admission reports
        overload-degraded, not the backend's own code."""
        backend.reply = lambda request: ServeResponse(
            status="degraded",
            error="cached-only miss",
            error_code="cached-only-miss",
            rows=7,
        )
        gw = gateway(
            backend,
            runtime,
            default_quota=TenantQuota(rate=1e6, burst=1e6, max_queue=2),
            degrade_at=0.5,
        )
        gw.admit(ServeRequest(query=SQL))  # hold a slot: 50% occupancy
        ticket, _ = gw.admit(ServeRequest(query=SQL))
        response = gw.process(ticket)
        assert response.degraded
        assert response.error_code == "overload-degraded"

    def test_clean_admission_keeps_backend_error_codes(self, backend, runtime):
        backend.reply = lambda request: ServeResponse(
            status="degraded",
            error="compile deadline",
            error_code="compile-timeout",
            rows=7,
        )
        response = gateway(backend, runtime).handle(ServeRequest(query=SQL))
        assert response.error_code == "compile-timeout"


class TestAccounting:
    def test_queue_and_service_timings_from_the_runtime_clock(self, runtime):
        backend = FakeBackend(runtime, service_seconds=0.5)
        gw = gateway(backend, runtime)
        ticket, _ = gw.admit(ServeRequest(query=SQL))
        runtime.advance(0.25)  # waited a quarter second for a slot
        response = gw.process(ticket)
        assert response.queue_seconds == pytest.approx(0.25)
        assert response.service_seconds == pytest.approx(0.5)
        assert response.latency_seconds == pytest.approx(0.75)

    def test_stats_expose_counters_and_tenants(self, backend, runtime):
        tracer = Tracer(MemorySink())
        gw = gateway(backend, runtime, tracer=tracer)
        gw.handle(ServeRequest(query=SQL, tenant="alpha"))
        stats = gw.stats()
        assert sorted(stats) == ["counters", "tenants"]
        assert stats["counters"]["serve.front.requests"] == 1
        assert stats["counters"]["serve.front.completed.ok"] == 1
        assert stats["tenants"]["alpha"]["depth"] == 0

    def test_tracer_defaults_to_the_backends(self, runtime):
        backend = FakeBackend(runtime)
        backend.tracer = Tracer(MemorySink())
        gw = ServeGateway(backend, runtime=runtime)
        gw.handle(ServeRequest(query=SQL))
        assert (
            backend.tracer.snapshot()["counters"]["serve.front.admitted"] == 1
        )
