"""Per-tenant admission control on a virtual clock: token buckets,
bounded queues, the degrade ladder, and tenant isolation."""

from __future__ import annotations

import pytest

from repro.exceptions import BouquetError
from repro.obs import MemorySink, Tracer
from repro.serve import AdmissionController, TenantQuota
from repro.serve.admission import TokenBucket
from tests.serve.load_model import SimulatedRuntime


class TestTenantQuota:
    @pytest.mark.parametrize(
        "kwargs",
        [{"rate": 0.0}, {"rate": -1.0}, {"burst": 0.5}, {"max_queue": 0}],
    )
    def test_invalid_quotas_rejected(self, kwargs):
        with pytest.raises(BouquetError):
            TenantQuota(**kwargs)


class TestTokenBucket:
    def test_burst_then_empty(self):
        bucket = TokenBucket(rate=1.0, burst=3.0, now=0.0)
        assert [bucket.try_acquire(0.0) for _ in range(4)] == [
            True,
            True,
            True,
            False,
        ]

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=2.0, burst=4.0, now=0.0)
        for _ in range(4):
            assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)
        # 0.5 virtual seconds at 2 tokens/s buys exactly one admission.
        assert bucket.try_acquire(0.5)
        assert not bucket.try_acquire(0.5)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2.0, now=0.0)
        assert bucket.level(1000.0) == 2.0


@pytest.fixture
def runtime():
    return SimulatedRuntime()


def controller(runtime, **kwargs):
    return AdmissionController(runtime, **kwargs)


class TestAdmission:
    def test_quota_shed_with_a_frozen_clock(self, runtime):
        ctl = controller(
            runtime, default_quota=TenantQuota(rate=1.0, burst=2.0, max_queue=8)
        )
        assert ctl.admit("t").admitted
        assert ctl.admit("t").admitted
        shed = ctl.admit("t")
        assert not shed.admitted
        assert shed.error_code == "shed-quota"
        assert "quota" in shed.reason

    def test_quota_recovers_as_the_clock_advances(self, runtime):
        ctl = controller(
            runtime, default_quota=TenantQuota(rate=10.0, burst=1.0, max_queue=8)
        )
        assert ctl.admit("t").admitted
        assert not ctl.admit("t").admitted
        runtime.advance(0.1)  # one token at 10/s
        assert ctl.admit("t").admitted

    def test_queue_shed_when_slots_are_held(self, runtime):
        ctl = controller(
            runtime,
            default_quota=TenantQuota(rate=1000.0, burst=1000.0, max_queue=3),
            degrade_at=1.0,
        )
        for _ in range(3):
            assert ctl.admit("t").admitted
        shed = ctl.admit("t")
        assert not shed.admitted
        assert shed.error_code == "shed-queue-full"
        ctl.release("t")
        assert ctl.admit("t").admitted

    def test_quota_sheds_before_the_queue_can_overflow(self, runtime):
        """The paper-shaped invariant: with burst < max_queue, a flood
        trips the token bucket while the queue still has headroom."""
        quota = TenantQuota(rate=1.0, burst=10.0, max_queue=50)
        ctl = controller(runtime, default_quota=quota)
        outcomes = [ctl.admit("t") for _ in range(40)]
        sheds = [d for d in outcomes if not d.admitted]
        assert len(sheds) == 30
        assert {d.error_code for d in sheds} == {"shed-quota"}
        assert ctl.depth("t") == 10  # never came close to max_queue

    def test_degrade_ladder_engages_at_occupancy(self, runtime):
        ctl = controller(
            runtime,
            default_quota=TenantQuota(rate=1e6, burst=1e6, max_queue=10),
            degrade_at=0.75,
        )
        decisions = [ctl.admit("t") for _ in range(10)]
        assert all(d.admitted for d in decisions)
        # Slots 1..7 are clean; 8, 9, 10 cross the 75% occupancy line.
        assert [d.degraded for d in decisions] == [False] * 7 + [True] * 3
        assert "ladder" in decisions[-1].reason

    def test_release_underflow_is_a_bug(self, runtime):
        ctl = controller(runtime)
        with pytest.raises(BouquetError, match="release without admit"):
            ctl.release("t")

    def test_degrade_at_validated(self, runtime):
        with pytest.raises(BouquetError):
            controller(runtime, degrade_at=0.0)
        with pytest.raises(BouquetError):
            controller(runtime, degrade_at=1.5)


class TestTenantIsolation:
    def test_one_tenants_flood_never_touches_another(self, runtime):
        ctl = controller(
            runtime,
            quotas={"noisy": TenantQuota(rate=1.0, burst=5.0, max_queue=8)},
            default_quota=TenantQuota(rate=1.0, burst=3.0, max_queue=8),
        )
        flood = [ctl.admit("noisy") for _ in range(100)]
        assert sum(d.admitted for d in flood) == 5  # burst, then shed
        # The quiet tenant's bucket and queue are untouched.
        for _ in range(3):
            assert ctl.admit("quiet").admitted
        assert ctl.depth("quiet") == 3
        assert ctl.depth("noisy") / ctl.quota_for("noisy").max_queue == 5 / 8

    def test_snapshot_reports_per_tenant_state(self, runtime):
        ctl = controller(
            runtime,
            quotas={"a": TenantQuota(rate=10.0, burst=4.0, max_queue=16)},
        )
        ctl.admit("a")
        snap = ctl.snapshot()
        assert snap["a"]["depth"] == 1
        assert snap["a"]["max_queue"] == 16
        assert snap["a"]["tokens"] == pytest.approx(3.0)
        assert snap["a"]["burst"] == 4.0


def test_shed_counters_flow_to_the_tracer(runtime):
    tracer = Tracer(MemorySink())
    ctl = AdmissionController(
        runtime,
        default_quota=TenantQuota(rate=1.0, burst=1.0, max_queue=4),
        tracer=tracer,
    )
    ctl.admit("t")
    ctl.admit("t")  # quota shed
    assert tracer.snapshot()["counters"]["serve.front.shed.quota"] == 1
