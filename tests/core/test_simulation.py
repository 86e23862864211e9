"""Tests for the ESS-wide simulation fields."""

import pytest

from repro.core import basic_cost_field, optimized_cost_field, simulate_at
from repro.core.simulation import sample_locations
from tests.conftest import figure13_by_definition


class TestBasicCostField:
    @staticmethod
    def _assert_matches_per_location(bouquet):
        """The runner books Figure 7 in the field's order, so the totals
        are equal bit for bit at every location; each execution stays
        inside its contour budget and each total inside the MSO bound."""
        field = basic_cost_field(bouquet)
        pic = bouquet.diagram.costs
        for loc in bouquet.space.locations():
            result = simulate_at(bouquet, loc, mode="basic")
            assert result.total_cost == field[loc]
            for record in result.executions:
                assert record.cost_spent <= record.budget
            assert result.total_cost <= bouquet.mso_bound * pic[loc] * (1 + 1e-6)

    def test_matches_per_location_simulation(self, eq_bouquet):
        self._assert_matches_per_location(eq_bouquet)

    def test_matches_per_location_simulation_3d(self, lab):
        self._assert_matches_per_location(lab.build("3D_DS_Q96").bouquet)

    def test_everywhere_positive_and_bounded(self, eq_bouquet, eq_diagram):
        field = basic_cost_field(eq_bouquet)
        assert (field > 0).all()
        subopt = field / eq_diagram.costs
        assert (subopt >= 1.0 - 1e-9).all()
        assert subopt.max() <= eq_bouquet.mso_bound * (1 + 1e-6)

    def test_3d_field(self, lab):
        ql = lab.build("3D_DS_Q96")
        field = basic_cost_field(ql.bouquet)
        assert field.shape == ql.space.shape
        subopt = field / ql.diagram.costs
        assert subopt.max() <= ql.bouquet.mso_bound * (1 + 1e-6)


class TestOptimizedCostField:
    def test_subset_of_locations(self, eq_bouquet):
        locations = [(0,), (30,), (63,)]
        field = optimized_cost_field(eq_bouquet, locations)
        assert set(field) == set(locations)
        for loc, cost in field.items():
            assert cost == pytest.approx(
                simulate_at(eq_bouquet, loc, mode="optimized").total_cost
            )


class TestOptimizedRunByDefinition:
    @pytest.mark.parametrize("name", ["EQ", "2D_H_Q8a", "3D_H_Q5", "3D_DS_Q96"])
    def test_simulate_at_equals_the_scalar_figure_13(self, lab, name):
        """The runner asks the shared decision functions one row at a
        time; the literal scalar Figure 13 of ``tests/conftest.py`` owes
        them nothing.  Every location, every execution, bit for bit."""
        bouquet = lab.build(name).bouquet
        for location in bouquet.space.locations():
            run = simulate_at(bouquet, location, mode="optimized")
            total, executions = figure13_by_definition(bouquet, location)
            assert run.total_cost == total
            assert [
                (e.contour_index, e.plan_id, e.spilled, e.cost_spent, e.completed)
                for e in run.executions
            ] == executions


class TestSampling:
    def test_sample_deterministic(self, eq_space):
        a = sample_locations(eq_space, 10, seed=1)
        b = sample_locations(eq_space, 10, seed=1)
        assert a == b
        assert len(set(a)) == 10

    def test_sample_larger_than_grid_returns_all(self, eq_space):
        sample = sample_locations(eq_space, 10_000)
        assert len(sample) == eq_space.size
