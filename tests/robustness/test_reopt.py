"""Tests for the ReOpt (mid-query re-optimization) baseline."""

import pytest

from repro.exceptions import EssError
from repro.robustness.reopt import ReoptStrategy


@pytest.fixture(scope="module")
def reopt(eq_space, optimizer):
    return ReoptStrategy(eq_space, optimizer)


def grid_value(space, index):
    return float(space.grids[0][index])


def suboptimality(reopt, qe_values, qa_values):
    """Total ReOpt cost at (qe, qa) relative to the optimal plan's."""
    truth = reopt.space.assignment_for(qa_values)
    optimal = reopt.optimizer.optimize(reopt.query, assignment=truth).cost
    return reopt.run(qe_values, qa_values).total_cost / optimal


class TestReoptRun:
    def test_correct_estimate_single_step_near_optimal(self, reopt, eq_space, optimizer):
        """With qe == qa the first checkpoint confirms the estimate and the
        chosen plan is optimal; overhead is just the checkpoint re-read."""
        qa = [grid_value(eq_space, 40)]
        run = reopt.run(qa, qa)
        assert run.steps[-1].completed
        truth = eq_space.assignment_for(qa)
        optimal = optimizer.optimize(eq_space.query, assignment=truth).cost
        assert run.total_cost <= 2.5 * optimal

    def test_wrong_estimate_triggers_reoptimization(self, reopt, eq_space):
        qe = [grid_value(eq_space, 0)]
        qa = [grid_value(eq_space, 60)]
        run = reopt.run(qe, qa)
        assert run.steps[-1].completed
        assert len(run.steps) >= 2
        # The error predicate was observed along the way.
        learned = {pid for step in run.steps for pid in step.learned_pids}
        assert eq_space.dimensions[0].pid in learned

    def test_total_cost_accumulates_checkpoints(self, reopt, eq_space):
        qe = [grid_value(eq_space, 0)]
        qa = [grid_value(eq_space, 60)]
        run = reopt.run(qe, qa)
        assert run.total_cost == pytest.approx(
            sum(step.cost_spent for step in run.steps)
        )

    def test_suboptimality_at_least_one(self, reopt, eq_space):
        sub = suboptimality(
            reopt, [grid_value(eq_space, 10)], [grid_value(eq_space, 50)]
        )
        assert sub >= 1.0

    def test_dimension_arity_checked(self, reopt):
        with pytest.raises(EssError):
            reopt.run([0.1, 0.2], [0.1])
        with pytest.raises(EssError):
            reopt.run([0.1], [0.1, 0.2])


class TestReoptVsBouquet:
    def test_reopt_unbounded_start_bouquet_bounded(
        self, reopt, eq_space, eq_bouquet, eq_diagram
    ):
        """The §7 argument: ReOpt's first checkpoint is seeded by the
        (possibly terrible) estimate and carries no cost ceiling, whereas
        every bouquet execution is budget-capped."""
        from repro.core import simulate_at

        qa_index = 55
        qa = [grid_value(eq_space, qa_index)]
        worst_reopt = 0.0
        for qe_index in (0, 20, 40, 63):
            sub = suboptimality(reopt, [grid_value(eq_space, qe_index)], qa)
            worst_reopt = max(worst_reopt, sub)
        bouquet_run = simulate_at(eq_bouquet, (qa_index,), mode="basic")
        bouquet_sub = bouquet_run.total_cost / eq_diagram.cost_at((qa_index,))
        assert bouquet_sub <= eq_bouquet.mso_bound * (1 + 1e-6)
        # ReOpt is decent here, but nothing caps it; the bouquet's bound
        # must hold regardless.
        assert worst_reopt >= 1.0
