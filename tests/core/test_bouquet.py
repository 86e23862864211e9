"""Tests for compile-time bouquet identification."""

import pytest

from repro.core import identify_bouquet
from repro.core.contours import Contour


class TestIdentifyBouquet:
    def test_budgets_inflated_by_lambda(self, eq_diagram):
        bouquet = identify_bouquet(eq_diagram, lambda_=0.2)
        for contour, budget in zip(bouquet.contours, bouquet.budgets):
            assert budget == pytest.approx(1.2 * contour.cost)

    def test_bouquet_is_union_of_contour_plans(self, eq_bouquet):
        expected = sorted({p for c in eq_bouquet.contours for p in c.plan_ids})
        assert eq_bouquet.plan_ids == expected

    def test_cardinality_small(self, eq_diagram, eq_bouquet):
        assert eq_bouquet.cardinality <= len(eq_diagram.posp_plan_ids)
        assert eq_bouquet.cardinality <= 10  # "anorexic levels"

    def test_rho_definition(self, eq_bouquet):
        assert eq_bouquet.rho == max(c.density for c in eq_bouquet.contours)

    def test_rho_is_counted_once_per_bouquet(self, eq_diagram, monkeypatch):
        """Every served response quotes ``mso_bound``; the contours are
        counted on the first quote only."""
        counted = []
        density = Contour.density
        monkeypatch.setattr(
            Contour, "density", property(lambda c: counted.append(c) or density.fget(c))
        )
        bouquet = identify_bouquet(eq_diagram)
        counted.clear()
        bounds = {bouquet.mso_bound for _ in range(5)}
        assert len(bounds) == 1 and bouquet.rho == max(c.density for c in bouquet.contours)
        assert len(counted) == 2 * len(bouquet.contours)

    def test_mso_bound_formula(self, eq_bouquet):
        r = eq_bouquet.ratio
        expected = eq_bouquet.rho * (1 + eq_bouquet.lambda_) * r * r / (r - 1)
        assert eq_bouquet.mso_bound == pytest.approx(expected)

    def test_anorexic_plans_respect_lambda_on_contours(self, eq_bouquet, eq_diagram):
        cache = eq_diagram.cache
        threshold = 1 + eq_bouquet.lambda_
        for contour in eq_bouquet.contours:
            for location, plan_id in contour.plan_at.items():
                cost = cache.cost(plan_id, location)
                assert cost <= threshold * eq_diagram.cost_at(location) * (1 + 1e-9)

    def test_zero_lambda_keeps_diagram_plans(self, eq_diagram):
        bouquet = identify_bouquet(eq_diagram, lambda_=0.0)
        for contour in bouquet.contours:
            for location, plan_id in contour.plan_at.items():
                assert plan_id == eq_diagram.plan_at(location)

    def test_ratio_controls_contour_count(self, eq_diagram):
        doubling = identify_bouquet(eq_diagram, ratio=2.0)
        quadrupling = identify_bouquet(eq_diagram, ratio=4.0)
        assert len(quadrupling.contours) < len(doubling.contours)

    def test_describe_mentions_key_facts(self, eq_bouquet):
        text = eq_bouquet.describe()
        assert "rho" in text and "IC1" in text and "lambda" in text
