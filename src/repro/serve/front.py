"""ServeGateway: the transport-agnostic multi-tenant serving core.

The gateway sits between any transport (the asyncio HTTP front-end, the
CLI, plain threads, the simulated load harness) and a serving backend —
normally a :class:`~repro.serve.server.BouquetServer`, or anything else
with ``serve_request(ServeRequest) -> ServeResponse``.  It owns the
multi-tenant story:

* **admission** (:mod:`repro.serve.admission`): token-bucket quotas and
  bounded per-tenant in-flight queues, checked *before* any work is
  dispatched, so backpressure is explicit — a shed request costs one
  clock read, never a thread;
* the **overload ladder**: past ``degrade_at`` queue occupancy a tenant's
  requests are admitted but stripped down the server's NAT degradation
  ladder (``cached_only`` — answer from the artifact cache or one native
  optimizer call, never a fresh compile) with budgets capped at
  ``degraded_budget``, so service degrades before anything is rejected;
* **accounting**: every response is stamped with tenant, request id, and
  queue/service timings from the gateway's clock (``runtime``: the
  real monotonic clock by default, a virtual one under simulation).

The three-call surface (:meth:`admit` / :meth:`process` /
:meth:`finish`) lets event-driven callers interleave admission and
completion; :meth:`handle` is the one-shot convenience that transports
with their own concurrency (threads, ``run_in_executor``) use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple, Union

from ..exceptions import BouquetError, ReproError
from ..obs.tracer import NULL_TRACER, Tracer
from ..query.query import Query
from .admission import (
    AdmissionController,
    AdmissionDecision,
    TenantQuota,
    _MonotonicClock,
)
from .envelope import ServeRequest, ServeResponse

__all__ = ["AdmissionTicket", "ServeGateway"]


@dataclass
class AdmissionTicket:
    """An admitted request: its envelope, decision, and clock marks."""

    request: ServeRequest
    decision: AdmissionDecision
    admitted_at: float
    started_at: Optional[float] = None


class ServeGateway:
    """Admission control + overload ladder over a serving backend."""

    def __init__(
        self,
        backend,
        *,
        runtime: Optional[_MonotonicClock] = None,
        quotas: Optional[Mapping[str, TenantQuota]] = None,
        default_quota: Optional[TenantQuota] = None,
        degrade_at: float = 0.75,
        degraded_budget: Optional[float] = None,
        tracer: Optional[Tracer] = None,
    ):
        if not hasattr(backend, "serve_request"):
            raise BouquetError(
                "gateway backend must expose serve_request(request)"
            )
        self.backend = backend
        self.runtime = runtime if runtime is not None else _MonotonicClock()
        if tracer is None:
            tracer = getattr(backend, "tracer", None)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.degraded_budget = degraded_budget
        self.admission = AdmissionController(
            self.runtime,
            quotas=quotas,
            default_quota=default_quota,
            degrade_at=degrade_at,
            tracer=self.tracer,
        )

    # ------------------------------------------------------------------
    # Event-driven surface (admit / process / finish)
    # ------------------------------------------------------------------

    def _coerce(self, request: Union[ServeRequest, str, Query]) -> ServeRequest:
        if isinstance(request, ServeRequest):
            return request
        return ServeRequest(query=request)

    def admit(
        self, request: Union[ServeRequest, str, Query]
    ) -> Tuple[Optional[AdmissionTicket], Optional[ServeResponse]]:
        """Validate and admission-check one request — cheap and
        non-blocking, safe on an event-loop thread.

        Returns ``(ticket, None)`` on admission or ``(None, response)``
        when the request is answered right here (invalid → ``failed``,
        over quota/queue → ``shed``).
        """
        tracer = self.tracer
        if tracer.enabled:
            tracer.count("serve.front.requests")
        request = self._coerce(request)
        try:
            request.validate()
        except ReproError as exc:
            if tracer.enabled:
                tracer.count("serve.front.invalid")
            return None, ServeResponse(
                status="failed",
                query_name=request.sql or "",
                tenant=request.tenant if isinstance(request.tenant, str) else "default",
                request_id=request.request_id,
                error=str(exc),
                error_code="invalid-request",
            )
        decision = self.admission.admit(request.tenant)
        if not decision.admitted:
            # Shed — typed, attributable, and safe to retry elsewhere.
            return None, ServeResponse(
                status="shed",
                query_name=request.sql or "",
                tenant=request.tenant,
                request_id=request.request_id,
                error=decision.reason,
                error_code=decision.error_code,
            )
        if tracer.enabled:
            tracer.count("serve.front.admitted")
        return (
            AdmissionTicket(
                request=request,
                decision=decision,
                admitted_at=self.runtime.now(),
            ),
            None,
        )

    def effective_request(self, ticket: AdmissionTicket) -> ServeRequest:
        """The request the backend actually sees — under overload it is
        stripped down the NAT ladder (cached-only, capped budget)."""
        request = ticket.request
        if not ticket.decision.degraded:
            return request
        budget = request.budget
        if self.degraded_budget is not None:
            budget = (
                min(budget, self.degraded_budget)
                if budget is not None
                else self.degraded_budget
            )
        return request.with_(cached_only=True, budget=budget)

    def finish(
        self, ticket: AdmissionTicket, response: ServeResponse
    ) -> ServeResponse:
        """Stamp identity + timings, account the outcome, release the
        tenant's queue slot.  Every admitted ticket must be finished
        exactly once."""
        now = self.runtime.now()
        started = ticket.started_at if ticket.started_at is not None else now
        response.tenant = ticket.request.tenant
        response.request_id = ticket.request.request_id
        response.queue_seconds = max(started - ticket.admitted_at, 0.0)
        response.service_seconds = max(now - started, 0.0)
        if ticket.decision.degraded and response.status == "degraded":
            # The overload ladder, not the request itself, caused the
            # degradation — report it as such.
            response.error_code = "overload-degraded"
            response.error = ticket.decision.reason or response.error
        if self.tracer.enabled:
            self.tracer.count(f"serve.front.completed.{response.status}")
        self.admission.release(ticket.request.tenant)
        return response

    def process(self, ticket: AdmissionTicket) -> ServeResponse:
        """Run an admitted request on the backend (blocking) and finish
        it.  Never raises for per-request problems."""
        ticket.started_at = self.runtime.now()
        try:
            response = self.backend.serve_request(self.effective_request(ticket))
        except ReproError as exc:
            response = ServeResponse(
                status="failed",
                query_name=ticket.request.sql or "",
                error=str(exc),
                error_code="invalid-request",
            )
        return self.finish(ticket, response)

    # ------------------------------------------------------------------
    # One-shot surface
    # ------------------------------------------------------------------

    def handle(
        self, request: Union[ServeRequest, str, Query]
    ) -> ServeResponse:
        """Admit and serve one request end to end on the calling thread."""
        ticket, response = self.admit(request)
        if response is not None:
            return response
        assert ticket is not None
        return self.process(ticket)

    def stats(self) -> Dict[str, object]:
        """Front-end counters plus per-tenant admission occupancy."""
        snapshot = (
            self.tracer.snapshot() if self.tracer.enabled else {"counters": {}}
        )
        return {
            "counters": {
                name: value
                for name, value in sorted(snapshot["counters"].items())
                if name.startswith("serve.")
            },
            "tenants": self.admission.snapshot(),
        }
