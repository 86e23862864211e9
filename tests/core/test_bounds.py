"""Tests for the theoretical bounds (Theorems 1-3, §3.4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import (
    best_achievable_mso,
    geometric_budgets,
    mso_bound_1d,
    mso_bound_multid,
    mso_bound_with_model_error,
    worst_case_suboptimality,
)
from repro.exceptions import BouquetError


class TestTheorem1:
    def test_bound_at_doubling(self):
        assert mso_bound_1d(2.0) == pytest.approx(4.0)

    def test_r2_minimizes(self):
        assert mso_bound_1d(2.0) == 4.0
        for r in (1.2, 1.5, 1.9, 2.1, 3.0, 8.0):
            assert mso_bound_1d(r) >= 4.0

    @given(st.floats(min_value=1.01, max_value=50.0))
    @settings(max_examples=50, deadline=None)
    def test_bound_formula_positive(self, r):
        assert mso_bound_1d(r) >= 4.0 - 1e-9

    def test_invalid_ratio(self):
        with pytest.raises(BouquetError):
            mso_bound_1d(1.0)


class TestTheorem2:
    def test_adversary_on_geometric_budgets(self):
        """For doubling budgets over a wide range, the adversary forces
        sub-optimality approaching (but never exceeding) 4."""
        budgets = geometric_budgets(1.0, 2.0**20, 2.0)
        worst = worst_case_suboptimality(budgets)
        assert 3.9 <= worst <= 4.0 + 1e-9

    def test_greedy_single_budget_is_fine(self):
        assert worst_case_suboptimality([10.0]) == pytest.approx(1.0)

    def test_ratio_sweep_bottoms_out_at_two(self):
        """Empirical Theorem 2: over the geometric family, no ratio beats
        the doubling strategy's worst case."""
        best_r, best_mso = best_achievable_mso(num_steps=20, span=2.0**20)
        assert best_mso >= 3.5
        assert 1.6 <= best_r <= 2.5

    def test_non_increasing_budgets_rejected(self):
        with pytest.raises(BouquetError):
            worst_case_suboptimality([4.0, 2.0])
        with pytest.raises(BouquetError):
            worst_case_suboptimality([-1.0, 2.0])

    @given(
        ratio=st.floats(min_value=1.1, max_value=10.0),
        decades=st.integers(min_value=3, max_value=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_adversary_never_exceeds_theorem1_bound(self, ratio, decades):
        budgets = geometric_budgets(1.0, 10.0**decades, ratio)
        if len(budgets) < 2:
            return
        worst = worst_case_suboptimality(budgets)
        assert worst <= mso_bound_1d(ratio) * (1 + 1e-9)


class TestTheorem3:
    def test_multid_bound_scales_with_rho(self):
        assert mso_bound_multid(1) == pytest.approx(4.0)
        assert mso_bound_multid(5) == pytest.approx(20.0)

    def test_anorexic_adjustment(self):
        assert mso_bound_multid(3, lambda_=0.2) == pytest.approx(4 * 1.2 * 3)

    def test_invalid_rho(self):
        with pytest.raises(BouquetError):
            mso_bound_multid(0)


class TestModelError:
    def test_delta_squared_inflation(self):
        assert mso_bound_with_model_error(4.0, 0.4) == pytest.approx(4.0 * 1.96)

    def test_zero_delta_identity(self):
        assert mso_bound_with_model_error(7.0, 0.0) == 7.0

    def test_negative_delta_rejected(self):
        with pytest.raises(BouquetError):
            mso_bound_with_model_error(4.0, -0.1)
