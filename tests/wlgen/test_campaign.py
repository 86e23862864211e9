"""Campaign harness: bound validation, determinism, failure capture."""

import json
from dataclasses import replace

import pytest

from repro.par import leaked_segments, shutdown_pools
from repro.wlgen import (
    CampaignConfig,
    CampaignReport,
    QueryOutcome,
    build_env,
    run_campaign,
    run_query,
)
from repro.wlgen.campaign import CampaignError

#: One small campaign shared by the whole module (~1 s).
CONFIG = CampaignConfig(count=8, seed=13)


@pytest.fixture(scope="module")
def report():
    return run_campaign(CONFIG)


class TestCampaignVerdict:
    def test_zero_crashes_zero_violations(self, report):
        assert report.ok, report.describe()
        assert not report.crashes
        assert not report.violations

    def test_every_mso_within_guarantee(self, report):
        for outcome in report.outcomes:
            assert outcome.mso is not None
            assert outcome.bound == pytest.approx(
                4.0 * (1.0 + report.config.lambda_) * outcome.rho
            )
            assert outcome.mso <= outcome.bound * (1.0 + 1e-6)

    def test_outcomes_cover_the_stream(self, report):
        assert [o.index for o in report.outcomes] == list(range(report.config.count))
        assert all(o.sql for o in report.outcomes)
        assert all(o.dimensions for o in report.outcomes)

    def test_summary_accounting(self, report):
        summary = report.summary()
        assert summary["queries"] == report.config.count
        assert summary["ok"] == report.config.count
        assert summary["violations"] == 0 and summary["crashes"] == 0
        assert summary["mso_max"] >= summary["mso_p95"] >= summary["mso_median"]
        assert 0.0 < summary["worst_bound_margin"] <= 1.0 + 1e-6
        assert sum(summary["geometries"].values()) == report.config.count


class TestCampaignVerdictTpcds(TestCampaignVerdict):
    """Multi-FK fact tables; a subclass so the TPC-H test ids keep their names."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_campaign(CampaignConfig(benchmark="tpcds", count=6))


class TestDeterminism:
    def test_rerun_is_bit_identical(self, report):
        again = run_campaign(CONFIG)
        a = json.dumps(report.to_dict(), sort_keys=True)
        b = json.dumps(again.to_dict(), sort_keys=True)
        assert a == b

    def test_two_workers_yield_the_same_roster(self, report):
        sharded = run_campaign(replace(CONFIG, workers=2))
        assert sharded.to_dict()["results"] == report.to_dict()["results"]
        shutdown_pools()
        assert leaked_segments() == []

    def test_seed_is_recorded_for_replay(self, report):
        payload = report.to_dict()
        assert payload["config"]["seed"] == CONFIG.seed
        assert payload["config"]["generator"]["max_joins"] == 4
        replayed = CampaignConfig.from_dict(payload["config"])
        assert replayed == CONFIG

    def test_results_sorted_by_index(self, report):
        indices = [r["index"] for r in report.to_dict()["results"]]
        assert indices == sorted(indices)


class TestSpillAccountingRegression:
    """Campaign-found driver bug (seed 42, indices 143/185 at count=200):
    a spill whose subtree was essentially the whole plan used to run to
    completion, discard its output, and re-run the same plan fully —
    double-charging the final contour and breaking the 4(1+λ)ρ bound.
    Spill-to-store resume keeps every (contour, plan) pair down to one
    budget-capped charge."""

    def test_formerly_violating_queries_stay_within_bound(self):
        config = CampaignConfig(count=200, seed=42)
        env = build_env(config)
        for index in (143, 185):
            outcome = run_query(env, config, index)
            assert outcome.status == "ok", outcome.error
            assert outcome.mso <= outcome.bound * (1.0 + 1e-6)


class TestHarnessMechanics:
    def test_progress_callback_sees_every_query(self):
        seen = []
        config = CampaignConfig(count=3, seed=99)
        run_campaign(config, progress=seen.append)
        assert [o.index for o in seen] == [0, 1, 2]
        assert all(isinstance(o, QueryOutcome) for o in seen)

    def test_crash_is_captured_not_raised(self):
        env = build_env(CampaignConfig(count=1, seed=1))
        env.optimizer = None  # sabotage: dimensioning will blow up
        outcome = run_query(env, CampaignConfig(count=1, seed=1), 0)
        assert outcome.status == "crash"
        assert not outcome.ok
        assert "Traceback" in outcome.error
        assert outcome.sql  # the failure artifact still carries the query

    def test_failures_listed_in_payload(self):
        crashed = QueryOutcome(index=0, name="W1_0", status="crash", error="boom")
        fine = QueryOutcome(
            index=1, name="W1_1", status="ok", mso=2.0, aso=1.5, bound=9.6, rho=2
        )
        payload = CampaignReport(
            config=CampaignConfig(count=2, seed=1), outcomes=[fine, crashed]
        ).to_dict()
        assert [f["name"] for f in payload["failures"]] == ["W1_0"]
        assert len(payload["results"]) == 2

    def test_config_validation(self):
        with pytest.raises(CampaignError):
            CampaignConfig(count=0)
        with pytest.raises(CampaignError):
            CampaignConfig(benchmark="sysbench")

    def test_two_query_campaign_is_ok(self):
        report = run_campaign(CampaignConfig(count=2, seed=21))
        assert isinstance(report, CampaignReport)
        assert report.ok
