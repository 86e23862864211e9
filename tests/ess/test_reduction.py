"""Tests for anorexic plan-diagram reduction."""

import pytest

from repro.ess import anorexic_reduce
from repro.exceptions import EssError


class TestAnorexicReduce:
    def test_reduces_cardinality(self, eq_diagram):
        reduction = anorexic_reduce(eq_diagram, lambda_=0.2)
        assert reduction.cardinality <= len(eq_diagram.posp_plan_ids)
        assert reduction.cardinality >= 1

    def test_lambda_guarantee_holds(self, eq_diagram):
        """Every replaced location's new plan stays within (1+λ) of
        optimal — the defining anorexic property."""
        lambda_ = 0.2
        reduction = anorexic_reduce(eq_diagram, lambda_=lambda_)
        cache = eq_diagram.cache
        for location, plan_id in reduction.assignment.items():
            optimal = eq_diagram.cost_at(location)
            actual = cache.cost(plan_id, location)
            assert actual <= (1 + lambda_) * optimal * (1 + 1e-9)

    def test_zero_lambda_keeps_optimal_plans(self, eq_diagram):
        reduction = anorexic_reduce(eq_diagram, lambda_=0.0)
        cache = eq_diagram.cache
        for location, plan_id in reduction.assignment.items():
            assert cache.cost(plan_id, location) == pytest.approx(
                eq_diagram.cost_at(location), rel=1e-9
            )

    def test_larger_lambda_never_increases_cardinality(self, eq_diagram):
        small = anorexic_reduce(eq_diagram, lambda_=0.05).cardinality
        large = anorexic_reduce(eq_diagram, lambda_=0.5).cardinality
        assert large <= small

    def test_negative_lambda_rejected(self, eq_diagram):
        with pytest.raises(EssError):
            anorexic_reduce(eq_diagram, lambda_=-0.1)

    def test_subset_of_locations(self, eq_diagram):
        locations = [(0,), (10,), (20,)]
        reduction = anorexic_reduce(eq_diagram, locations, lambda_=0.2)
        assert set(reduction.assignment) == set(locations)

    def test_empty_locations_rejected(self, eq_diagram):
        with pytest.raises(EssError):
            anorexic_reduce(eq_diagram, [], lambda_=0.2)
