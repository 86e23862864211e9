"""Unit tests for BouquetRunner's internal machinery (§5.1-§5.3)."""

import pytest

from repro.core.runtime import AbstractExecutionService, BouquetRunner


@pytest.fixture(scope="module")
def runner_3d(lab):
    ql = lab.build("3D_DS_Q96")
    qa = ql.space.selectivities_at(ql.space.corner)
    service = AbstractExecutionService(ql.bouquet, qa)
    return ql, BouquetRunner(ql.bouquet, service, mode="optimized")


class TestDominatingPlans:
    def test_origin_dominated_by_everything(self, runner_3d):
        ql, runner = runner_3d
        origin_values = [dim.lo for dim in ql.space.dimensions]
        for contour in ql.bouquet.contours:
            plans = runner._dominating_plans(contour, origin_values)
            assert set(plans) == set(contour.plan_ids)

    def test_corner_prunes_lower_contours(self, runner_3d):
        ql, runner = runner_3d
        corner_values = list(ql.space.selectivities_at(ql.space.corner))
        # Lower contours' frontiers cannot dominate the corner.
        lower = runner._dominating_plans(ql.bouquet.contours[0], corner_values)
        upper = runner._dominating_plans(ql.bouquet.contours[-1], corner_values)
        assert upper  # the final contour always covers the corner
        assert len(lower) <= len(ql.bouquet.contours[0].plan_ids)

    def test_result_sorted_and_unique(self, runner_3d):
        ql, runner = runner_3d
        mid = [
            float((dim.lo * dim.hi) ** 0.5) for dim in ql.space.dimensions
        ]
        for contour in ql.bouquet.contours:
            plans = runner._dominating_plans(contour, mid)
            assert plans == sorted(set(plans))

    def test_matches_the_componentwise_definition_at_grid_points(self, runner_3d):
        """The integer form (first grid index at or past q_run, per
        dimension) answers exactly like comparing selectivities — also
        when q_run sits on a grid point or within the 1e-9 tolerance of
        one, where a location at that grid point still dominates."""
        ql, runner = runner_3d
        space = ql.space

        def by_definition(contour, qrun):
            return sorted(
                {
                    plan_id
                    for location, plan_id in contour.plan_at.items()
                    if all(
                        s >= q * (1.0 - 1e-9)
                        for s, q in zip(space.selectivities_at(location), qrun)
                    )
                }
            )

        pruned = 0
        on_contours = [next(iter(c.plan_at)) for c in ql.bouquet.contours]
        for location in on_contours + [space.corner, space.origin]:
            on_grid = list(space.selectivities_at(location))
            for nudge in (1.0, 1.0 + 5e-10, 1.0 - 5e-10, 1.0 + 2e-9):
                qrun = [value * nudge for value in on_grid]
                for contour in ql.bouquet.contours:
                    got = runner._dominating_plans(contour, qrun)
                    assert got == by_definition(contour, qrun)
                    pruned += len(got) < len(contour.plan_ids)
        assert pruned  # the cases do cut plans
        # A contour location dominates q_run sitting exactly on it, and
        # still does inside the tolerance.
        for contour, location in zip(ql.bouquet.contours, on_contours):
            at = list(space.selectivities_at(location))
            inside = [value * (1.0 + 5e-10) for value in at]
            assert contour.plan_at[location] in runner._dominating_plans(contour, at)
            assert contour.plan_at[location] in runner._dominating_plans(contour, inside)


class TestAxisPlans:
    def test_axis_plans_subset_of_contour(self, runner_3d):
        ql, runner = runner_3d
        origin = [dim.lo for dim in ql.space.dimensions]
        for contour in ql.bouquet.contours:
            candidates = runner._axis_plans(contour, origin, exact=set())
            for cand in candidates:
                assert cand.plan_id in contour.plan_ids
                assert cand.contour_location in contour.locations

    def test_exact_dims_excluded(self, runner_3d):
        ql, runner = runner_3d
        origin = [dim.lo for dim in ql.space.dimensions]
        contour = ql.bouquet.contours[-1]
        all_dims = runner._axis_plans(contour, origin, exact=set())
        fewer = runner._axis_plans(contour, origin, exact={0, 1})
        spanned = {c.dim_index for c in fewer}
        assert 0 not in spanned and 1 not in spanned
        assert len(fewer) <= len(all_dims) or {c.dim_index for c in all_dims} == spanned

    def test_beyond_contour_returns_empty(self, runner_3d):
        ql, runner = runner_3d
        corner_values = list(ql.space.selectivities_at(ql.space.corner))
        # q_run at the very corner prices beyond every non-final contour.
        candidates = runner._axis_plans(ql.bouquet.contours[0], corner_values, set())
        assert candidates == []


class TestSpillFloor:
    def test_floor_increases_with_qrun(self, runner_3d):
        ql, runner = runner_3d
        dims = ql.space.dimensions
        unlearned = frozenset(d.pid for d in dims)
        plan_id = ql.bouquet.plan_ids[0]
        low = runner._spill_floor(plan_id, [d.lo for d in dims], unlearned)
        high = runner._spill_floor(plan_id, [d.hi for d in dims], unlearned)
        assert high >= low

    def test_floor_positive(self, runner_3d):
        ql, runner = runner_3d
        dims = ql.space.dimensions
        unlearned = frozenset(d.pid for d in dims)
        for plan_id in ql.bouquet.plan_ids:
            assert runner._spill_floor(plan_id, [d.lo for d in dims], unlearned) > 0


class TestPickCandidate:
    def test_prefers_deep_error_nodes_within_group(self, runner_3d):
        from repro.core.runtime import AxisPlanCandidate

        ql, runner = runner_3d
        a = AxisPlanCandidate(0, 1, (0, 0, 0), cost_at_qrun=100.0, error_depth=1)
        b = AxisPlanCandidate(1, 2, (0, 0, 0), cost_at_qrun=105.0, error_depth=3)
        # Same equivalence group (within 20%): the deeper error node wins.
        assert runner._pick_candidate([a, b]) is b

    def test_cost_dominates_across_groups(self, runner_3d):
        from repro.core.runtime import AxisPlanCandidate

        ql, runner = runner_3d
        cheap = AxisPlanCandidate(0, 1, (0, 0, 0), cost_at_qrun=10.0, error_depth=0)
        deep = AxisPlanCandidate(1, 2, (0, 0, 0), cost_at_qrun=100.0, error_depth=5)
        # Not in the cheapest group: depth cannot rescue the expensive one.
        assert runner._pick_candidate([cheap, deep]) is cheap


class TestBudgetInflation:
    def test_model_error_delta_scales_budgets(self, eq_bouquet):
        qa = eq_bouquet.space.selectivities_at((10,))
        service = AbstractExecutionService(eq_bouquet, qa)
        plain = BouquetRunner(eq_bouquet, service, mode="basic")
        inflated = BouquetRunner(
            eq_bouquet, service, mode="basic", model_error_delta=0.4
        )
        for a, b in zip(plain.budgets, inflated.budgets):
            assert b == pytest.approx(1.4 * a)

    def test_negative_delta_rejected(self, eq_bouquet):
        from repro.exceptions import BouquetError

        qa = eq_bouquet.space.selectivities_at((10,))
        service = AbstractExecutionService(eq_bouquet, qa)
        with pytest.raises(BouquetError):
            BouquetRunner(eq_bouquet, service, model_error_delta=-0.1)


class TestPointCostMemo:
    def test_cost_at_values_memoized_per_plan_and_point(self, eq_bouquet):
        """One costing context per point: a second call at an equal
        point costs no new node, a different point gets its own."""
        qa = eq_bouquet.space.selectivities_at((10,))
        service = AbstractExecutionService(eq_bouquet, qa)
        runner = BouquetRunner(eq_bouquet, service, mode="optimized")
        plan_id = eq_bouquet.contours[0].plan_ids[0]
        values = [dim.lo for dim in eq_bouquet.space.dimensions]
        first = runner._cost_at_values(plan_id, values)
        costed = len(runner._context(values)._memo)
        second = runner._cost_at_values(plan_id, list(values))
        runner._cost_at_values(plan_id, [v * 2.0 for v in values])
        assert first == second
        assert len(runner._context(values)._memo) == costed > 0
        assert len(runner._contexts) == 2  # one per distinct point

    def test_memo_is_per_runner(self, eq_bouquet):
        qa = eq_bouquet.space.selectivities_at((10,))
        service = AbstractExecutionService(eq_bouquet, qa)
        a = BouquetRunner(eq_bouquet, service, mode="optimized")
        b = BouquetRunner(eq_bouquet, service, mode="optimized")
        plan_id = eq_bouquet.contours[0].plan_ids[0]
        values = [dim.lo for dim in eq_bouquet.space.dimensions]
        a._cost_at_values(plan_id, values)
        assert tuple(values) in a._contexts
        assert tuple(values) not in b._contexts
