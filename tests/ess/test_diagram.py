"""Tests for plan diagrams, PIC properties, and the cost cache."""

import numpy as np
import pytest

from repro.core.runtime import AbstractExecutionService, BouquetRunner
from repro.ess import PlanDiagram, coarse_subgrid


class TestExhaustiveDiagram:
    def test_posp_has_multiple_plans(self, eq_diagram):
        assert len(eq_diagram.posp_plan_ids) >= 3

    def test_pic_monotone(self, eq_diagram):
        diffs = np.diff(eq_diagram.costs)
        assert (diffs >= -1e-9 * eq_diagram.costs[:-1]).all()

    def test_cmin_cmax_at_corners(self, eq_diagram):
        assert eq_diagram.cmin == eq_diagram.costs.min()
        assert eq_diagram.cmax == eq_diagram.costs.max()
        assert eq_diagram.cmax > eq_diagram.cmin

    def test_occupancy_sums_to_grid(self, eq_diagram):
        assert sum(eq_diagram.occupancy().values()) == eq_diagram.space.size

    def test_plan_optimal_in_own_region(self, eq_diagram):
        """At each location, the diagram's plan is at least as cheap as
        every other POSP plan costed there."""
        cache = eq_diagram.cache
        posp = eq_diagram.posp_plan_ids
        arrays = {p: cache.cost_array(p) for p in posp}
        for loc in list(eq_diagram.space.locations())[::7]:
            own = eq_diagram.plan_at(loc)
            best = min(arrays[p][loc] for p in posp)
            assert arrays[own][loc] == pytest.approx(best, rel=1e-9)


class TestCostCache:
    def test_cost_array_matches_pointwise(self, eq_diagram):
        cache = eq_diagram.cache
        plan_id = eq_diagram.posp_plan_ids[0]
        array = cache.cost_array(plan_id)
        assert array[(5,)] == cache.cost(plan_id, (5,))

    def test_cost_at_values_interpolates_grid(self, eq_diagram, eq_bouquet):
        """The runner's point costing agrees with the grid arrays at a
        grid point and lies between neighbours off the grid."""
        cache = eq_diagram.cache
        plan_id = eq_diagram.posp_plan_ids[0]
        grid = eq_diagram.space.grids[0]
        service = AbstractExecutionService(eq_bouquet, [float(grid[10])])
        runner = BouquetRunner(eq_bouquet, service)
        at_grid = runner._cost_at_values(plan_id, [float(grid[10])])
        assert at_grid == pytest.approx(cache.cost(plan_id, (10,)))
        between = runner._cost_at_values(
            plan_id, [float(np.sqrt(grid[10] * grid[11]))]
        )
        assert cache.cost(plan_id, (10,)) <= between <= cache.cost(plan_id, (11,))

    def test_arrays_are_cached(self, eq_diagram):
        cache = eq_diagram.cache
        plan_id = eq_diagram.posp_plan_ids[0]
        assert cache.cost_array(plan_id) is cache.cost_array(plan_id)

    def test_invalidate_drops_one_plan(self, eq_diagram):
        cache = eq_diagram.cache
        a, b = eq_diagram.posp_plan_ids[0], eq_diagram.posp_plan_ids[1]
        first_a, first_b = cache.cost_array(a), cache.cost_array(b)
        cache.invalidate(a)
        rebuilt = cache.cost_array(a)
        assert rebuilt is not first_a
        np.testing.assert_array_equal(rebuilt, first_a)
        assert cache.cost_array(b) is first_b
        cache.invalidate()
        assert len(cache) == 0
        assert cache.cost_array(b) is not first_b

    def test_concurrent_cost_array_builds_are_safe(self, eq_diagram):
        import threading

        base = eq_diagram.cache
        from repro.ess.diagram import PlanCostCache

        cache = PlanCostCache(base.space, base.optimizer, base.registry)
        plan_ids = list(eq_diagram.posp_plan_ids)
        errors = []

        def worker():
            try:
                for plan_id in plan_ids:
                    cache.cost_array(plan_id)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for plan_id in plan_ids:
            np.testing.assert_array_equal(
                cache.cost_array(plan_id), base.cost_array(plan_id)
            )


class TestCandidateDiagram:
    def test_approximation_close_to_exhaustive(self, optimizer, eq_space, eq_diagram):
        approx = PlanDiagram.from_candidates(
            optimizer, eq_space, coarse_subgrid(eq_space, per_dim=8)
        )
        # The approximate PIC can never be below the true PIC (it argmins
        # over a subset of plans) and should be within the anorexic band.
        assert (approx.costs >= eq_diagram.costs * (1 - 1e-9)).all()
        assert (approx.costs <= eq_diagram.costs * 1.3).all()

    def test_exact_at_seed_locations(self, optimizer, eq_space, eq_diagram):
        seeds = [(0,), (31,), (63,)]
        approx = PlanDiagram.from_candidates(optimizer, eq_space, seeds)
        for seed in seeds:
            assert approx.cost_at(seed) == pytest.approx(eq_diagram.cost_at(seed))


class TestCoarseSubgrid:
    def test_includes_corners(self, eq_space):
        seeds = coarse_subgrid(eq_space, per_dim=4)
        assert (0,) in seeds and (63,) in seeds
        assert len(seeds) == 4


class TestVectorizedCosting:
    def test_cost_array_matches_pointwise_costing(self, eq_bouquet, lab):
        """The single-pass vectorized cost field must equal per-location
        scalar costing exactly (same formulas, elementwise), and a slab
        costing at the contour locations (the anorexic reduction's) must
        equal the field gathered there bit for bit, for every POSP plan."""
        from repro.optimizer.plans import CostContext, cost_plan

        for bouquet in (eq_bouquet, lab.build("3D_DS_Q96").bouquet):
            diagram = bouquet.diagram
            cache = diagram.cache
            plan_id = diagram.posp_plan_ids[-1]
            plan = diagram.registry.plan(plan_id)
            vectorized = cache.cost_array(plan_id)
            space = diagram.space
            sample = list(space.locations())[:: max(1, space.size // 50)]
            for location in sample:
                scalar = cost_plan(
                    plan,
                    cache.optimizer.schema,
                    cache.optimizer.cost_model,
                    space.assignment_at(location),
                ).cost
                assert vectorized[location] == pytest.approx(scalar, rel=1e-12)

            locations = list(
                dict.fromkeys(loc for c in bouquet.contours for loc in c.locations)
            )
            flat = np.ravel_multi_index(np.asarray(locations).T, space.shape)
            columns, length = space.slab_columns(flat)
            ctx = CostContext.for_slab(
                cache.optimizer.schema, cache.optimizer.cost_model, columns
            )
            posp = diagram.posp_plan_ids
            plans = [diagram.registry.plan(pid) for pid in posp]
            fields = cache.cost_arrays(posp)
            for pid, estimate in zip(posp, ctx.estimates(plans)):
                slab = np.broadcast_to(np.asarray(estimate.cost, dtype=float), length)
                assert np.array_equal(slab, fields[pid].ravel()[flat]), pid
