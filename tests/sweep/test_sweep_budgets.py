"""The sweep's batched rounds must preserve the λ-inflated budget semantics:
every failed execution charges exactly ``(1+λ) * IC_k`` — the contour
budget, not the raw contour cost (Figure 7 discipline, carried over to
the Figure 13 driver)."""

import dataclasses

import numpy as np
import pytest

from repro.core import identify_bouquet
from repro.core.simulation import optimized_cost_field, simulate_at
from repro.sweep import SweepEngine
from tests.conftest import reference_field

RTOL = 1e-9


def _with_lambda(bouquet, lambda_):
    """Same contours/plans, rescaled budgets (isolates budget semantics
    from the anorexic-reduction structural changes λ normally drives)."""
    budgets = [(1.0 + lambda_) * contour.cost for contour in bouquet.contours]
    return dataclasses.replace(bouquet, budgets=budgets, lambda_=lambda_)


@pytest.mark.parametrize("lambda_", [0.0, 0.5])
def test_engine_matches_reference_under_lambda(eq_bouquet, lambda_):
    bouquet = _with_lambda(eq_bouquet, lambda_)
    swept = optimized_cost_field(bouquet)
    ref = reference_field(bouquet)
    for loc, total in ref.items():
        assert swept[loc] == pytest.approx(total, rel=RTOL)


def test_failed_charges_are_inflated_budgets(eq_bouquet):
    """White box: decompose each total into final-plan cost plus a sum
    of whole contour budgets, and check the engine reproduces it."""
    lambda_ = 0.5
    bouquet = _with_lambda(eq_bouquet, lambda_)
    engine = SweepEngine(bouquet)
    field = engine.cost_field()
    checked_failures = 0
    # record.contour_index carries the contour's paper-facing label
    # (Contour.index), not its position in the (reduced) ladder.
    budget_of = {
        contour.index: budget
        for contour, budget in zip(bouquet.contours, bouquet.budgets)
    }
    for loc in bouquet.space.locations():
        result = simulate_at(bouquet, loc, mode="optimized")
        failed_spend = 0.0
        for record in result.executions:
            if not record.completed:
                # Every failed execution charges its contour's inflated
                # budget exactly.
                expected = budget_of[record.contour_index]
                assert record.cost_spent == pytest.approx(expected, rel=RTOL)
                assert record.budget == pytest.approx(expected, rel=RTOL)
                failed_spend += record.cost_spent
                checked_failures += 1
        assert field[loc] == pytest.approx(result.total_cost, rel=RTOL)
        assert result.total_cost >= failed_spend - RTOL * abs(failed_spend)
    # The EQ grid is wide enough that some locations climb: the check
    # above must have exercised real failures, not vacuously passed.
    assert checked_failures > 0


def test_lambda_zero_and_inflated_fields_differ_only_by_budget_charges(
    eq_bouquet,
):
    """With identical contours, λ only changes what failures cost; a
    location that completes on the first attempt costs the same in both
    fields."""
    flat = _with_lambda(eq_bouquet, 0.0)
    inflated = _with_lambda(eq_bouquet, 0.5)
    field_flat = SweepEngine(flat).cost_field()
    field_inflated = SweepEngine(inflated).cost_field()
    no_failures = np.array(
        [
            simulate_at(flat, loc, mode="optimized").partial_executions == 0
            and simulate_at(inflated, loc, mode="optimized").partial_executions
            == 0
            for loc in flat.space.locations()
        ]
    ).reshape(flat.space.shape)
    assert no_failures.any()
    np.testing.assert_allclose(
        field_flat[no_failures], field_inflated[no_failures], rtol=RTOL
    )
