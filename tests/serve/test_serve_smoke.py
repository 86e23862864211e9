"""The §4.2 deployment check, as counts and sources: a canned workload
compiled cold is then served from the artifact cache with zero optimizer
work, a statistics refresh patches every artifact across, and the four
outcome arms stay distinct typed statuses."""

from __future__ import annotations

from repro.drift import perturb_statistics
from repro.obs import MemorySink, Tracer
from repro.serve import (
    BouquetArtifactStore,
    BouquetServer,
    ServeGateway,
    ServeRequest,
    TenantQuota,
)
from tests.serve.load_model import SimulatedRuntime

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


def _optimized_locations(tracer: Tracer) -> float:
    """ESS locations the optimizer planned: slab locations plus the
    scalar calls that remain (band stragglers, dimensioning sweeps, the
    NAT fallback)."""
    return tracer.counters.get("optimizer.calls", 0) + tracer.counters.get(
        "optimizer.batched_locations", 0
    )


def test_canned_workload_shapes():
    assert len(CANNED_WORKLOAD) >= 3
    assert len(set(CANNED_WORKLOAD)) == len(CANNED_WORKLOAD)


def test_smoke_run_amortizes(catalog, small_config, tmp_path):
    tracer = Tracer(MemorySink())
    store = BouquetArtifactStore(root=str(tmp_path), tracer=tracer)
    with BouquetServer(
        catalog, config=small_config, store=store, tracer=tracer
    ) as server:

        def sources():
            return [server.compile(sql)[1] for sql in CANNED_WORKLOAD]

        assert sources() == ["compiled"] * len(CANNED_WORKLOAD)
        cold = _optimized_locations(tracer)
        assert cold > 0

        # Warm pass: every request answered from the cache, the
        # optimizer not invoked at all.
        assert sources() == ["memory"] * len(CANNED_WORKLOAD)
        assert _optimized_locations(tracer) == cold

        # Statistics drift: the fingerprint changes, but with a live
        # database the compile inputs do not — the refresh must patch
        # every artifact across rather than recompile it.
        drifted = perturb_statistics(
            catalog.statistics, "part", "p_retailprice", scale=1.05
        )
        server.refresh_statistics(drifted)
        assert tracer.counters["serve.cache.patched"] == len(CANNED_WORKLOAD)
        assert sources() == ["memory"] * len(CANNED_WORKLOAD)
        assert _optimized_locations(tracer) == cold

        # One request down each outcome arm, through a gateway whose
        # frozen virtual clock makes admission deterministic (burst 1,
        # no refill -> the second request is guaranteed to shed).
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
    assert {
        name: (response.status, response.error_code)
        for name, response in probes.items()
    } == {
        "ok": ("ok", None),
        "shed": ("shed", "shed-quota"),
        "degraded": ("degraded", "cached-only-miss"),
        "failed": ("failed", "parse-error"),
    }
