"""Tests for isocost contour construction."""

import math

import numpy as np
import pytest

from repro.core.contours import (
    build_contours,
    contour_costs,
    densest_contour_plans,
    maximal_region_frontier,
)
from repro.exceptions import BouquetError


class TestContourCosts:
    def test_geometric_progression(self):
        costs = contour_costs(1.0, 100.0, 2.0)
        for a, b in zip(costs, costs[1:]):
            assert b == pytest.approx(2 * a)

    def test_boundary_conditions(self):
        """a/r < Cmin <= IC1 and ICm == Cmax (§3.1)."""
        for cmin, cmax, r in [(1.0, 100.0, 2.0), (3.7, 812.0, 2.0), (1.0, 16.0, 2.0), (2.0, 7.0, 3.0)]:
            costs = contour_costs(cmin, cmax, r)
            assert costs[-1] == pytest.approx(cmax)
            assert costs[0] >= cmin * (1 - 1e-9)
            assert costs[0] / r < cmin

    def test_exact_power_span(self):
        costs = contour_costs(1.0, 16.0, 2.0)
        assert costs == pytest.approx([1.0, 2.0, 4.0, 8.0, 16.0])

    def test_step_count_formula(self):
        costs = contour_costs(1.0, 1000.0, 2.0)
        assert len(costs) == math.floor(math.log2(1000.0)) + 1

    def test_degenerate_flat_pic(self):
        assert contour_costs(5.0, 5.0, 2.0) == [5.0]

    def test_invalid_inputs(self):
        with pytest.raises(BouquetError):
            contour_costs(0.0, 10.0, 2.0)
        with pytest.raises(BouquetError):
            contour_costs(1.0, 10.0, 1.0)
        with pytest.raises(BouquetError):
            contour_costs(10.0, 1.0, 2.0)


class TestFrontier:
    def test_1d_frontier_is_single_point(self):
        costs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        assert maximal_region_frontier(costs, [5.0, 16.0]) == [[(2,)], [(4,)]]

    def test_below_minimum_empty(self):
        costs = np.array([1.0, 2.0])
        assert maximal_region_frontier(costs, [0.5, 1.0]) == [[], [(0,)]]

    def test_2d_staircase(self):
        # cost(i, j) = (i+1) * (j+1): monotone in both axes.
        grid = np.fromfunction(lambda i, j: (i + 1) * (j + 1), (4, 4))
        (frontier,) = maximal_region_frontier(grid, [4.0])
        assert frontier == [(0, 3), (1, 1), (3, 0)]  # row-major

    def test_frontier_dominates_region(self):
        """Every in-region location must be dominated by a frontier point."""
        rng = np.random.default_rng(0)
        base = np.cumsum(rng.uniform(0.1, 1.0, size=(6, 6)), axis=0)
        grid = np.cumsum(base, axis=1)  # monotone in both axes
        ic = float(np.median(grid))
        (frontier,) = maximal_region_frontier(grid, [ic])
        for i in range(6):
            for j in range(6):
                if grid[i, j] <= ic:
                    assert any(fi >= i and fj >= j for fi, fj in frontier)


class TestBuildContours:
    def test_contours_cover_cost_range(self, eq_diagram):
        contours = build_contours(eq_diagram)
        assert contours[-1].cost == pytest.approx(eq_diagram.cmax)
        assert contours[0].cost >= eq_diagram.cmin * (1 - 1e-9)
        for contour in contours:
            assert contour.locations, f"contour {contour.index} is empty"

    def test_1d_contour_locations_monotone(self, eq_diagram):
        contours = build_contours(eq_diagram)
        positions = [contour.locations[0][0] for contour in contours]
        assert positions == sorted(positions)

    def test_contour_plans_are_diagram_choices(self, eq_diagram):
        for contour in build_contours(eq_diagram):
            for location, plan_id in contour.plan_at.items():
                assert plan_id == eq_diagram.plan_at(location)

    def test_density(self, eq_diagram):
        contours = build_contours(eq_diagram)
        rho = densest_contour_plans(contours)
        assert rho >= 1
        assert rho == max(c.density for c in contours)

    def test_densest_requires_contours(self):
        with pytest.raises(BouquetError):
            densest_contour_plans([])
