"""Cross-cutting property-based tests (hypothesis) for the core
invariants the bouquet guarantees rest on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import geometric_budgets, mso_bound_1d, worst_case_suboptimality
from repro.core.contours import contour_costs, maximal_region_frontier
from repro.core.runtime import _geometric_interp


# ---------------------------------------------------------------------------
# Contour construction
# ---------------------------------------------------------------------------


class TestContourCostProperties:
    @given(
        cmin=st.floats(min_value=1e-3, max_value=1e6),
        span=st.floats(min_value=1.0 + 1e-6, max_value=1e9),
        ratio=st.floats(min_value=1.1, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_boundary_conditions(self, cmin, span, ratio):
        """§3.1: a/r < Cmin <= IC1 and IC_m == Cmax for ANY valid inputs."""
        cmax = cmin * span
        costs = contour_costs(cmin, cmax, ratio)
        assert costs[-1] == pytest.approx(cmax)
        assert costs[0] >= cmin * (1 - 1e-9)
        assert costs[0] / ratio < cmin * (1 + 1e-9)
        for a, b in zip(costs, costs[1:]):
            assert b == pytest.approx(a * ratio)

    @given(
        ratio=st.floats(min_value=1.1, max_value=10.0),
        decades=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_adversary_bounded_by_theorem1(self, ratio, decades):
        budgets = geometric_budgets(1.0, 10.0**decades, ratio)
        if len(budgets) < 2:
            return
        assert worst_case_suboptimality(budgets) <= mso_bound_1d(ratio) * (1 + 1e-9)


class TestFrontierProperties:
    @given(
        shape=st.tuples(
            st.integers(min_value=2, max_value=6),
            st.integers(min_value=2, max_value=6),
            st.integers(min_value=2, max_value=5),
        ),
        seed=st.integers(min_value=0, max_value=10_000),
        quantile=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_frontier_dominates_region_3d(self, shape, seed, quantile):
        """Every in-region cell is dominated by some frontier cell — the
        property that makes contour budgets sufficient (§3.2)."""
        rng = np.random.default_rng(seed)
        grid = rng.uniform(0.1, 1.0, size=shape)
        for axis in range(3):
            grid = np.cumsum(grid, axis=axis)  # monotone along every axis
        ic = float(np.quantile(grid, quantile))
        (frontier,) = maximal_region_frontier(grid, [ic])
        inside = np.argwhere(grid <= ic + 1e-9 * ic)
        for cell in inside:
            assert any(
                all(f >= c for f, c in zip(loc, cell)) for loc in frontier
            ), (cell, frontier)

    @given(
        shape=st.tuples(
            st.integers(min_value=2, max_value=8),
            st.integers(min_value=2, max_value=8),
        ),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_frontier_is_antichain(self, shape, seed):
        """No frontier cell dominates another (they are maximal elements)."""
        rng = np.random.default_rng(seed)
        grid = np.cumsum(np.cumsum(rng.uniform(0.1, 1.0, size=shape), axis=0), axis=1)
        ic = float(np.median(grid))
        (frontier,) = maximal_region_frontier(grid, [ic])
        for a in frontier:
            for b in frontier:
                if a != b:
                    assert not all(x >= y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Interpolation helper
# ---------------------------------------------------------------------------


class TestGeometricInterp:
    @given(
        lo=st.floats(min_value=1e-9, max_value=0.5),
        factor=st.floats(min_value=1.0, max_value=1e6),
        t=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_stays_in_range_and_monotone(self, lo, factor, t):
        hi = min(1.0, lo * factor)
        value = _geometric_interp(lo, hi, t)
        assert lo * (1 - 1e-12) <= value <= hi * (1 + 1e-12)
        later = _geometric_interp(lo, hi, min(1.0, t + 0.1))
        assert later >= value * (1 - 1e-12)


# ---------------------------------------------------------------------------
# End-to-end invariants on the shared 1D bouquet
# ---------------------------------------------------------------------------


class TestBouquetInvariants:
    @given(index=st.integers(min_value=0, max_value=63))
    @settings(max_examples=30, deadline=None)
    def test_basic_run_respects_bound_everywhere(self, eq_bouquet, eq_diagram, index):
        from repro.core import simulate_at

        result = simulate_at(eq_bouquet, (index,), mode="basic")
        assert result.completed
        bound = eq_bouquet.mso_bound * eq_diagram.cost_at((index,))
        assert result.total_cost <= bound * (1 + 1e-6)

    @given(index=st.integers(min_value=0, max_value=63))
    @settings(max_examples=20, deadline=None)
    def test_optimized_run_learning_is_safe(self, eq_bouquet, index):
        """All learned values are lower bounds of the true selectivity."""
        from repro.core import simulate_at

        truth = eq_bouquet.space.selectivities_at((index,))[0]
        result = simulate_at(eq_bouquet, (index,), mode="optimized")
        assert result.completed
        for record in result.executions:
            for learned in record.learned:
                assert learned.value <= truth * (1 + 1e-6)

    @given(index=st.integers(min_value=0, max_value=63))
    @settings(max_examples=20, deadline=None)
    def test_budgets_never_exceeded(self, eq_bouquet, index):
        from repro.core import simulate_at

        for mode in ("basic", "optimized"):
            result = simulate_at(eq_bouquet, (index,), mode=mode)
            for record in result.executions:
                assert record.cost_spent <= record.budget * (1 + 1e-9)
