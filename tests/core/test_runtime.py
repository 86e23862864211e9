"""Tests for the bouquet run-time driver and the abstract service."""

import numpy as np
import pytest

from repro.core import BouquetRunner, simulate_at
from repro.core.runtime import AbstractExecutionService, LearnedSelectivity
from repro.exceptions import BouquetError


class TestAbstractService:
    def test_full_run_completes_iff_cost_fits(self, eq_bouquet):
        qa = eq_bouquet.space.selectivities_at((30,))
        service = AbstractExecutionService(eq_bouquet, qa)
        plan_id = eq_bouquet.plan_ids[0]
        true_cost = service.true_cost(plan_id)
        assert service.run_full(plan_id, true_cost * 1.01).completed
        failed = service.run_full(plan_id, true_cost * 0.5)
        assert not failed.completed
        assert failed.cost_spent == pytest.approx(true_cost * 0.5)

    def test_spilled_learning_is_lower_bound(self, eq_bouquet, eq_query):
        qa = eq_bouquet.space.selectivities_at((40,))
        service = AbstractExecutionService(eq_bouquet, qa)
        pid = eq_bouquet.space.dimensions[0].pid
        plan_id = eq_bouquet.contours[0].plan_ids[0]
        outcome = service.run_spilled(plan_id, eq_bouquet.budgets[0], frozenset((pid,)))
        for learned in outcome.learned:
            assert learned.value <= qa[0] * (1 + 1e-6)

    def test_spilled_exact_with_big_budget(self, eq_bouquet):
        qa = eq_bouquet.space.selectivities_at((20,))
        service = AbstractExecutionService(eq_bouquet, qa)
        pid = eq_bouquet.space.dimensions[0].pid
        plan_id = eq_bouquet.contours[-1].plan_ids[0]
        outcome = service.run_spilled(plan_id, 1e12, frozenset((pid,)))
        assert outcome.completed
        assert outcome.learned and outcome.learned[0].exact
        assert outcome.learned[0].value == pytest.approx(qa[0])

    def test_dimensionality_checked(self, eq_bouquet):
        with pytest.raises(BouquetError):
            AbstractExecutionService(eq_bouquet, (0.1, 0.2))


class TestBasicRunner:
    def test_completes_everywhere(self, eq_bouquet):
        for loc in [(0,), (13,), (37,), (63,)]:
            result = simulate_at(eq_bouquet, loc, mode="basic")
            assert result.completed
            assert result.final_plan_id in eq_bouquet.plan_ids

    def test_total_cost_bounded_by_theorem(self, eq_bouquet, eq_diagram):
        bound = eq_bouquet.mso_bound
        for loc in [(0,), (20,), (45,), (63,)]:
            result = simulate_at(eq_bouquet, loc, mode="basic")
            assert result.total_cost <= bound * eq_diagram.cost_at(loc) * (1 + 1e-6)

    def test_cheap_locations_finish_on_first_contour(self, eq_bouquet):
        result = simulate_at(eq_bouquet, (0,), mode="basic")
        assert result.executions[0].contour_index == 1
        assert result.execution_count <= len(eq_bouquet.contours[0].plan_ids)

    def test_expensive_locations_climb_contours(self, eq_bouquet):
        result = simulate_at(eq_bouquet, eq_bouquet.space.corner, mode="basic")
        contour_indices = {e.contour_index for e in result.executions}
        assert len(contour_indices) == len(eq_bouquet.contours)

    def test_trace_budget_respected(self, eq_bouquet):
        result = simulate_at(eq_bouquet, (50,), mode="basic")
        for record in result.executions:
            assert record.cost_spent <= record.budget * (1 + 1e-9)

    def test_repeatability(self, eq_bouquet):
        """Same qa → identical execution sequence (§1's repeatability)."""
        a = simulate_at(eq_bouquet, (33,), mode="basic")
        b = simulate_at(eq_bouquet, (33,), mode="basic")
        assert [(e.contour_index, e.plan_id) for e in a.executions] == [
            (e.contour_index, e.plan_id) for e in b.executions
        ]
        assert a.total_cost == pytest.approx(b.total_cost)

    def test_invalid_mode_rejected(self, eq_bouquet):
        qa = eq_bouquet.space.selectivities_at((0,))
        service = AbstractExecutionService(eq_bouquet, qa)
        with pytest.raises(BouquetError):
            BouquetRunner(eq_bouquet, service, mode="turbo")


class TestOptimizedRunner:
    def test_completes_everywhere(self, eq_bouquet):
        for loc in [(0,), (13,), (37,), (63,)]:
            result = simulate_at(eq_bouquet, loc, mode="optimized")
            assert result.completed

    def test_not_worse_than_basic_on_average(self, eq_bouquet, eq_diagram):
        locations = [(i,) for i in range(0, 64, 5)]
        basic = np.mean(
            [simulate_at(eq_bouquet, l, "basic").total_cost / eq_diagram.cost_at(l) for l in locations]
        )
        optimized = np.mean(
            [
                simulate_at(eq_bouquet, l, "optimized").total_cost / eq_diagram.cost_at(l)
                for l in locations
            ]
        )
        assert optimized <= basic * 1.05

    def test_spilled_executions_present(self, eq_bouquet):
        result = simulate_at(eq_bouquet, (40,), mode="optimized")
        assert any(e.spilled for e in result.executions)
        # The last execution is the one that answered the query — either
        # a full run or a spill whose resumed plan fit the budget.
        assert result.executions[-1].completed

    def test_contour_charges_respect_rho_accounting(self, eq_bouquet):
        """The 4(1+λ)ρ bound rests on each contour charging at most ρ
        budget-capped executions; spill-to-store keeps every
        (contour, plan) pair down to a single charge."""
        budgets = {c.index: b for c, b in zip(eq_bouquet.contours, eq_bouquet.budgets)}
        for loc in [(0,), (13,), (40,), (63,)]:
            result = simulate_at(eq_bouquet, loc, mode="optimized")
            per_contour = {}
            for e in result.executions:
                per_contour[e.contour_index] = (
                    per_contour.get(e.contour_index, 0.0) + e.cost_spent
                )
            for contour_index, spent in per_contour.items():
                allowance = eq_bouquet.rho * budgets[contour_index]
                assert spent <= allowance * (1 + 1e-9)

    def test_repeatability(self, eq_bouquet):
        a = simulate_at(eq_bouquet, (40,), mode="optimized")
        b = simulate_at(eq_bouquet, (40,), mode="optimized")
        assert [(e.contour_index, e.plan_id, e.spilled) for e in a.executions] == [
            (e.contour_index, e.plan_id, e.spilled) for e in b.executions
        ]


class TestMultiDimensionalRunner:
    @pytest.fixture(scope="class")
    def lab3d(self, lab):
        return lab.build("3D_DS_Q96")

    def test_basic_completes_at_corners_and_center(self, lab3d):
        space = lab3d.space
        locations = [space.origin, space.corner, tuple(s // 2 for s in space.shape)]
        for loc in locations:
            result = simulate_at(lab3d.bouquet, loc, mode="basic")
            assert result.completed

    def test_optimized_completes_and_is_competitive(self, lab3d):
        space = lab3d.space
        for loc in [space.origin, space.corner, (1, 3, 2)]:
            basic = simulate_at(lab3d.bouquet, loc, mode="basic")
            optimized = simulate_at(lab3d.bouquet, loc, mode="optimized")
            assert optimized.completed
            # Optimized may differ per-location but must respect the bound.
            assert optimized.total_cost <= lab3d.bouquet.mso_bound * lab3d.diagram.cost_at(loc) * (1 + 1e-6)

    def test_first_quadrant_invariant(self, lab3d):
        """Learned values never exceed the true location's selectivities
        (the invariant that makes q_run tracking safe, §5.2)."""
        from repro.core.runtime import AbstractExecutionService, BouquetRunner

        space = lab3d.space
        qa_loc = (2, 4, 3)
        qa = space.selectivities_at(qa_loc)
        truth = {dim.pid: value for dim, value in zip(space.dimensions, qa)}
        service = AbstractExecutionService(lab3d.bouquet, qa)
        runner = BouquetRunner(lab3d.bouquet, service, mode="optimized")
        result = runner.run()
        assert result.completed
        for record in result.executions:
            for learned in record.learned:
                assert learned.value <= truth[learned.pid] * (1 + 1e-6)

    def test_learned_value_past_hi_is_clamped(self, lab):
        """Real rows can measure a selectivity past its dimension's ``hi``
        (``4D_DS_Q7``'s ``cd_demo_sk=ss_cdemo_sk``: 0.0026069 against
        0.0026042).  ``q_run`` is clamped to ``hi``, so the last contour
        keeps a dominating location and the run still completes."""

        class Overshoot(AbstractExecutionService):
            def run_spilled(self, plan_id, budget, unlearned_pids):
                outcome = super().run_spilled(plan_id, budget, unlearned_pids)
                outcome.learned = [
                    LearnedSelectivity(l.pid, l.value * 1.001, l.exact)
                    for l in outcome.learned
                ]
                return outcome

        bouquet = lab.build("2D_H_Q8a").bouquet
        space = bouquet.space
        service = Overshoot(bouquet, space.selectivities_at((space.shape[0] - 1, 0)))
        result = BouquetRunner(bouquet, service).run()
        hi = {dim.pid: dim.hi for dim in space.dimensions}
        learned = [l for e in result.executions for l in e.learned]
        assert any(l.value > hi[l.pid] for l in learned)
        assert result.completed
