"""Per-tenant admission control: token-bucket quotas, bounded queues,
and the overload ladder.

The front-end admits, degrades, or sheds every request *before* any
bouquet work happens, so overload can never silently queue work past
what the pool can absorb.  Per tenant:

* a **token bucket** (``rate`` tokens/second, ``burst`` capacity)
  bounds sustained and instantaneous request rates — an empty bucket
  sheds with ``shed-quota``;
* a **bounded in-flight queue** (``max_queue`` slots, held from
  admission until the response is stamped) bounds memory and latency —
  a full queue sheds with ``shed-queue-full``;
* the **degrade ladder**: once a tenant's queue passes ``degrade_at``
  occupancy, requests are still admitted but marked *degraded* — the
  gateway then strips them down the server's NAT ladder (cached-only,
  capped budget) so budgets degrade before anything is rejected.
  Because ``burst < max_queue`` in any sane quota, a flood trips the
  quota shed before the queue can overflow.

Buckets are keyed by tenant and isolated: one tenant's flood drains its
own bucket and queue only.  Time is read from an injected clock, any
object with ``now()`` in seconds; the default is :class:`_MonotonicClock`,
and tests pass a virtual one, so the same controller runs under real or
virtual time.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..exceptions import BouquetError
from ..obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "TenantQuota",
    "TokenBucket",
]


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's admission budget."""

    rate: float = 200.0  # sustained requests/second (bucket refill)
    burst: float = 50.0  # bucket capacity (instantaneous headroom)
    max_queue: int = 64  # in-flight slots (admission -> response)

    def __post_init__(self):
        if self.rate <= 0:
            raise BouquetError("quota: rate must be positive")
        if self.burst < 1:
            raise BouquetError("quota: burst must be at least 1")
        if self.max_queue < 1:
            raise BouquetError("quota: max_queue must be at least 1")


class TokenBucket:
    """A thread-safe token bucket on an injected clock."""

    def __init__(self, rate: float, burst: float, now: float):
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last = float(now)
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = now - self._last
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._last = now

    def try_acquire(self, now: float, tokens: float = 1.0) -> bool:
        with self._lock:
            self._refill(now)
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    def level(self, now: float) -> float:
        with self._lock:
            self._refill(now)
            return self._tokens


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    admitted: bool
    tenant: str
    degraded: bool = False  # admitted, but down the overload ladder
    error_code: Optional[str] = None  # shed-quota / shed-queue-full
    reason: Optional[str] = None
    queue_depth: int = 0


class _MonotonicClock:
    """The real clock of the gateway and the admission controller."""

    def now(self) -> float:
        return time.monotonic()


class _TenantState:
    def __init__(self, quota: TenantQuota, now: float):
        self.quota = quota
        self.bucket = TokenBucket(quota.rate, quota.burst, now)
        self.depth = 0


class AdmissionController:
    """Thread-safe per-tenant admission: quota → queue → degrade ladder."""

    def __init__(
        self,
        runtime: Optional[_MonotonicClock] = None,
        *,
        quotas: Optional[Mapping[str, TenantQuota]] = None,
        default_quota: Optional[TenantQuota] = None,
        degrade_at: float = 0.75,
        tracer: Optional[Tracer] = None,
    ):
        if not 0.0 < degrade_at <= 1.0:
            raise BouquetError("degrade_at must be in (0, 1]")
        self.runtime = runtime if runtime is not None else _MonotonicClock()
        self.default_quota = (
            default_quota if default_quota is not None else TenantQuota()
        )
        self._quotas = dict(quotas) if quotas else {}
        self.degrade_at = degrade_at
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._tenants: Dict[str, _TenantState] = {}
        self._lock = threading.Lock()

    def quota_for(self, tenant: str) -> TenantQuota:
        return self._quotas.get(tenant, self.default_quota)

    def _state(self, tenant: str) -> _TenantState:
        with self._lock:
            state = self._tenants.get(tenant)
            if state is None:
                state = _TenantState(self.quota_for(tenant), self.runtime.now())
                self._tenants[tenant] = state
            return state

    def admit(self, tenant: str) -> AdmissionDecision:
        """Check the tenant's bucket and queue; on admission a queue
        slot is held until :meth:`release`."""
        state = self._state(tenant)
        now = self.runtime.now()
        if not state.bucket.try_acquire(now):
            if self.tracer.enabled:
                self.tracer.count("serve.front.shed.quota")
            return AdmissionDecision(
                admitted=False,
                tenant=tenant,
                error_code="shed-quota",
                reason=(
                    f"tenant {tenant!r} exceeded its quota "
                    f"({state.quota.rate:g}/s, burst {state.quota.burst:g})"
                ),
                queue_depth=state.depth,
            )
        with self._lock:
            if state.depth >= state.quota.max_queue:
                if self.tracer.enabled:
                    self.tracer.count("serve.front.shed.queue")
                return AdmissionDecision(
                    admitted=False,
                    tenant=tenant,
                    error_code="shed-queue-full",
                    reason=(
                        f"tenant {tenant!r} queue full "
                        f"({state.quota.max_queue} slots)"
                    ),
                    queue_depth=state.depth,
                )
            state.depth += 1
            depth = state.depth
        degraded = depth / state.quota.max_queue >= self.degrade_at
        if degraded and self.tracer.enabled:
            self.tracer.count("serve.front.degraded_overload")
        return AdmissionDecision(
            admitted=True,
            tenant=tenant,
            degraded=degraded,
            reason="overload: degrade ladder engaged" if degraded else None,
            queue_depth=depth,
        )

    def release(self, tenant: str) -> None:
        state = self._state(tenant)
        with self._lock:
            if state.depth <= 0:
                raise BouquetError(
                    f"release without admit for tenant {tenant!r}"
                )
            state.depth -= 1

    def depth(self, tenant: str) -> int:
        return self._state(tenant).depth

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        now = self.runtime.now()
        with self._lock:
            tenants = dict(self._tenants)
        return {
            tenant: {
                "depth": state.depth,
                "max_queue": state.quota.max_queue,
                "tokens": state.bucket.level(now),
                "burst": state.quota.burst,
            }
            for tenant, state in sorted(tenants.items())
        }
