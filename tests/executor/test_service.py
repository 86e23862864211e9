"""Tests for RealExecutionService: the bouquet on top of real execution."""

import pytest

from repro.core import AbstractExecutionService, BouquetRunner
from repro.executor import ExecutionEngine, RealExecutionService


@pytest.fixture(scope="module")
def real_service(eq_bouquet, database):
    engine = ExecutionEngine(database, batch_size=1024)
    return RealExecutionService(eq_bouquet, engine)


@pytest.fixture(scope="module")
def eq_actual_result(eq_bouquet, database, eq_query):
    """Ground-truth EQ row count via a plain full execution."""
    engine = ExecutionEngine(database)
    plan = eq_bouquet.registry.plan(eq_bouquet.plan_ids[-1])
    return engine.execute(eq_query, plan).rows


class TestRealBouquetExecution:
    def test_basic_returns_correct_result(self, eq_bouquet, real_service, eq_actual_result):
        runner = BouquetRunner(eq_bouquet, real_service, mode="basic")
        result = runner.run()
        assert result.completed
        assert result.result_rows == eq_actual_result

    def test_optimized_returns_correct_result(
        self, eq_bouquet, real_service, eq_actual_result
    ):
        runner = BouquetRunner(eq_bouquet, real_service, mode="optimized")
        result = runner.run()
        assert result.completed
        assert result.result_rows == eq_actual_result

    def test_real_run_close_to_simulated_run(self, eq_bouquet, real_service):
        """Abstract (cost-world) and real executions agree on structure,
        both started from what the real service's index probes measured."""
        known = real_service.known_selectivities().learned
        abstract = AbstractExecutionService(
            eq_bouquet, [known[0].value], known=known
        )
        simulated = BouquetRunner(eq_bouquet, abstract, mode="basic").run()
        real = BouquetRunner(eq_bouquet, real_service, mode="basic").run()
        # Same order of magnitude of total effort; identical contour count
        # modulo one step of grid discretization.
        sim_contours = {e.contour_index for e in simulated.executions}
        real_contours = {e.contour_index for e in real.executions}
        assert abs(max(sim_contours) - max(real_contours)) <= 1
        assert real.total_cost == pytest.approx(simulated.total_cost, rel=0.6)


class TestLearning:
    def test_spilled_learning_lower_bounds_truth(
        self, eq_bouquet, real_service, database
    ):
        from repro.optimizer import actual_selectivities

        truth = actual_selectivities(eq_bouquet.space.query, database)
        pid = eq_bouquet.space.dimensions[0].pid
        plan_id = eq_bouquet.contours[0].plan_ids[0]
        outcome = real_service.run_spilled(
            plan_id, eq_bouquet.budgets[0], frozenset((pid,))
        )
        for learned in outcome.learned:
            assert learned.value <= truth[pid] * (1 + 1e-6)

    def test_spilled_learning_exact_with_large_budget(
        self, eq_bouquet, real_service, database
    ):
        from repro.optimizer import actual_selectivities

        truth = actual_selectivities(eq_bouquet.space.query, database)
        pid = eq_bouquet.space.dimensions[0].pid
        plan_id = eq_bouquet.contours[-1].plan_ids[0]
        outcome = real_service.run_spilled(plan_id, 1e12, frozenset((pid,)))
        assert outcome.completed
        assert outcome.learned
        learned = outcome.learned[0]
        assert learned.exact
        assert learned.value == pytest.approx(truth[pid], rel=1e-6)

    def test_history_recorded(self, eq_bouquet, real_service):
        before = len(real_service.history)
        real_service.run_full(eq_bouquet.plan_ids[0], budget=1e9)
        assert len(real_service.history) == before + 1
