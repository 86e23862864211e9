"""Tests for bouquet validation."""

import copy

import numpy as np

from repro.core.validation import validate_bouquet


class TestValidateBouquet:
    def test_healthy_bouquet_passes(self, eq_bouquet):
        report = validate_bouquet(eq_bouquet, check_optimized=True, sample=8)
        assert report.ok, report.describe()
        assert report.measured_mso <= report.bound * (1 + 1e-6)
        assert report.checked_locations == eq_bouquet.space.size

    def test_multid_bouquet_passes(self, lab):
        ql = lab.build("3D_DS_Q96")
        report = validate_bouquet(ql.bouquet, check_optimized=True, sample=4)
        assert report.ok, report.describe()

    def test_describe_mentions_status(self, eq_bouquet):
        report = validate_bouquet(eq_bouquet)
        assert "OK" in report.describe()
        assert "measured MSO" in report.describe()

    def test_diagram_is_monotone(self, eq_diagram):
        assert eq_diagram.check_monotone()

    def test_detects_pcm_violation(self, eq_bouquet):
        # A diagram whose optimal cost falls along its axis: PCM breaks.
        diagram = copy.copy(eq_bouquet.diagram)
        diagram.costs = np.array(eq_bouquet.diagram.costs)
        diagram.costs[40:] = diagram.costs[39] / 2
        broken = copy.copy(eq_bouquet)
        broken.diagram = diagram
        assert not diagram.check_monotone()
        report = validate_bouquet(broken)
        assert "pcm" in {issue.kind for issue in report.issues}

    def test_detects_budget_tampering(self, eq_bouquet):
        broken = copy.copy(eq_bouquet)
        broken.budgets = list(eq_bouquet.budgets)
        broken.budgets[0] *= 3.0  # violates the (1+λ) progression
        report = validate_bouquet(broken)
        assert not report.ok
        assert any(issue.kind == "budget" for issue in report.issues)

    def test_detects_contour_plan_tampering(self, eq_bouquet, eq_diagram):
        from repro.core.contours import Contour

        broken = copy.copy(eq_bouquet)
        # Assign the cheapest-region plan to the most expensive contour
        # location: its cost there blows the (1+λ) threshold.
        cheap_plan = eq_diagram.plan_at(eq_bouquet.space.origin)
        last = eq_bouquet.contours[-1]
        exp_plan_at = dict(last.plan_at)
        for location in exp_plan_at:
            exp_plan_at[location] = cheap_plan
        tampered = Contour(
            index=last.index,
            cost=last.cost,
            locations=list(last.locations),
            plan_at=exp_plan_at,
        )
        broken.contours = list(eq_bouquet.contours[:-1]) + [tampered]
        report = validate_bouquet(broken)
        assert not report.ok
        kinds = {issue.kind for issue in report.issues}
        assert kinds & {"anorexic", "mso", "coverage"}
