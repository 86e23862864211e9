"""Unit tests for the Figure 13 decisions (§5.1-§5.3) both drivers ask,
each also held at many rows to the scalar definition it replaced
(``tests/conftest.py``), and for BouquetRunner's own machinery."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime import (
    EQUIVALENCE_THRESHOLD,
    AbstractExecutionService,
    BouquetRunner,
    LearnedSelectivity,
    RunState,
    axis_plans,
    dominating,
    pick,
    pruned_by_floor,
)
from repro.core.simulation import simulate_at
from repro.optimizer.plans import error_node_depth
from tests.conftest import (
    axis_plans_by_definition,
    covering_location,
    dominating_by_definition,
    pick_by_definition,
    ray_end_by_walk,
)


@pytest.fixture(scope="module")
def runner_3d(lab):
    ql = lab.build("3D_DS_Q96")
    qa = ql.space.selectivities_at(ql.space.corner)
    service = AbstractExecutionService(ql.bouquet, qa)
    return ql, BouquetRunner(ql.bouquet, service, mode="optimized")


@pytest.fixture(scope="module")
def runners(lab):
    """A runner per bouquet the properties draw from (its costing only)."""
    out = []
    for name in ("3D_DS_Q96", "3D_H_Q5"):
        bouquet = lab.build(name).bouquet
        qa = bouquet.space.selectivities_at(bouquet.space.corner)
        out.append(BouquetRunner(bouquet, AbstractExecutionService(bouquet, qa)))
    return out


def _tables(bouquet, contour):
    return bouquet.contour_tables(bouquet.contours.index(contour))


def _dominating(bouquet, contour, qrun):
    """The shared first-quadrant test asked about one row, as plan ids."""
    tables = _tables(bouquet, contour)
    (mask,) = dominating(tables, np.array([qrun]))
    return [pid for pid, dominates in zip(tables.plan_ids, mask) if dominates]


def _masks(tables, rows, exact, attempted=frozenset()):
    """Sets of exact dimensions and attempted plans as the per-row masks
    :func:`axis_plans` reads, the same for every row."""
    exact_mask = [d in exact for d in range(tables.space.dimensionality)]
    attempted_mask = [pid in attempted for pid in tables.plan_ids]
    return np.array([exact_mask] * len(rows)), np.array([attempted_mask] * len(rows))


def _axis_plans(bouquet, contour, qrun, exact, attempted=frozenset()):
    """The shared AxisPlans asked about rows: ``{plan: depth}`` per row."""
    tables = _tables(bouquet, contour)
    plans, present, depth = axis_plans(
        tables, np.array(qrun), *_masks(tables, qrun, exact, attempted)
    )
    return [
        {pid: int(d) for pid, met, d in zip(plans, row_present, row_depth) if met}
        for row_present, row_depth in zip(present, depth)
    ]


def _draw_case(data, runners):
    """A runner, one of its contours and up to six ``q_run`` rows: grid
    points, within the 1e-9 tolerance of one, or off the grid."""
    runner = data.draw(st.sampled_from(runners))
    space = runner.space
    contour = data.draw(st.sampled_from(runner.bouquet.contours))
    nudges = st.sampled_from([1.0, 1.0 + 5e-10, 1.0 - 5e-10, 1.0 + 2e-9, 0.8, 1.3])
    rows = [
        [
            min(float(grid[data.draw(st.integers(0, grid.size - 1))]) * data.draw(nudges), dim.hi)
            for grid, dim in zip(space.grids, space.dimensions)
        ]
        for _ in range(data.draw(st.integers(1, 6)))
    ]
    exact = set(data.draw(st.lists(st.integers(0, space.dimensionality - 1), max_size=2)))
    return runner, contour, rows, exact


class TestDominatingPlans:
    def test_origin_dominated_by_everything(self, runner_3d):
        ql, runner = runner_3d
        origin_values = [dim.lo for dim in ql.space.dimensions]
        for contour in ql.bouquet.contours:
            plans = _dominating(ql.bouquet, contour, origin_values)
            assert set(plans) == set(contour.plan_ids)

    def test_corner_prunes_lower_contours(self, runner_3d):
        ql, runner = runner_3d
        corner_values = list(ql.space.selectivities_at(ql.space.corner))
        # Lower contours' frontiers cannot dominate the corner.
        lower = _dominating(ql.bouquet, ql.bouquet.contours[0], corner_values)
        upper = _dominating(ql.bouquet, ql.bouquet.contours[-1], corner_values)
        assert upper  # the final contour always covers the corner
        assert len(lower) <= len(ql.bouquet.contours[0].plan_ids)

    def test_result_sorted_and_unique(self, runner_3d):
        ql, runner = runner_3d
        mid = [
            float((dim.lo * dim.hi) ** 0.5) for dim in ql.space.dimensions
        ]
        for contour in ql.bouquet.contours:
            plans = _dominating(ql.bouquet, contour, mid)
            assert plans == sorted(set(plans))

    def test_matches_the_componentwise_definition_at_grid_points(self, runner_3d):
        """The shared test answers exactly like comparing selectivities
        location by location — also when q_run sits on a grid point or
        within the 1e-9 tolerance of one, where a location at that grid
        point still dominates."""
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
                    got = _dominating(ql.bouquet, contour, qrun)
                    assert got == by_definition(contour, qrun)
                    pruned += len(got) < len(contour.plan_ids)
        assert pruned  # the cases do cut plans
        # A contour location dominates q_run sitting exactly on it, and
        # still does inside the tolerance.
        for contour, location in zip(ql.bouquet.contours, on_contours):
            at = list(space.selectivities_at(location))
            inside = [value * (1.0 + 5e-10) for value in at]
            assert contour.plan_at[location] in _dominating(ql.bouquet, contour, at)
            assert contour.plan_at[location] in _dominating(ql.bouquet, contour, inside)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_many_rows_match_the_bisected_definition(self, runners, data):
        runner, contour, rows, _exact = _draw_case(data, runners)
        tables = _tables(runner.bouquet, contour)
        for row, mask in zip(rows, dominating(tables, np.array(rows))):
            assert [pid for pid, d in zip(tables.plan_ids, mask) if d] == (
                dominating_by_definition(runner.bouquet, contour, row)
            )


class TestAxisPlans:
    def test_axis_plans_subset_of_contour(self, runner_3d):
        ql, runner = runner_3d
        origin = [dim.lo for dim in ql.space.dimensions]
        for contour in ql.bouquet.contours:
            (candidates,) = _axis_plans(ql.bouquet, contour, [origin], exact=set())
            assert set(candidates) <= set(contour.plan_ids)

    def test_exact_dims_excluded(self, runner_3d):
        """With dimensions 0 and 1 learned, a candidate is met along
        dimension 2 alone, at that axis' error depth."""
        ql, runner = runner_3d
        origin = [dim.lo for dim in ql.space.dimensions]
        contour = ql.bouquet.contours[-1]
        (all_dims,) = _axis_plans(ql.bouquet, contour, [origin], exact=set())
        (fewer,) = _axis_plans(ql.bouquet, contour, [origin], exact={0, 1})
        assert set(fewer) <= set(all_dims)
        _columns, depths = _tables(ql.bouquet, contour).gather
        plan_ids = contour.plan_ids
        assert fewer == {pid: int(depths[plan_ids.index(pid), 2]) for pid in fewer}
        assert _axis_plans(ql.bouquet, contour, [origin], exact={0, 1, 2}) == [{}]

    def test_beyond_contour_returns_empty(self, runner_3d):
        ql, runner = runner_3d
        corner_values = list(ql.space.selectivities_at(ql.space.corner))
        # q_run at the very corner prices beyond every non-final contour.
        candidates = _axis_plans(ql.bouquet, ql.bouquet.contours[0], [corner_values], set())
        assert candidates == [{}]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_many_rows_match_the_ray_walk(self, runners, data):
        """The gather tables answer as the cell-by-cell ray walk and the
        covering-location search, less the plans already attempted —
        each row by its own exact dimensions and attempted plans, as the
        sweep asks about a round's rows."""
        runner, contour, rows, exact = _draw_case(data, runners)
        dims = range(runner.space.dimensionality)
        exacts = [exact] + [
            set(data.draw(st.lists(st.sampled_from(dims), max_size=2))) for _ in rows[1:]
        ]
        attempts = [
            frozenset(data.draw(st.lists(st.sampled_from(contour.plan_ids), max_size=2)))
            for _ in rows
        ]
        tables = _tables(runner.bouquet, contour)
        plans, present, depth = axis_plans(
            tables,
            np.array(rows),
            np.array([[d in known for d in dims] for known in exacts]),
            np.array([[pid in tried for pid in tables.plan_ids] for tried in attempts]),
        )
        for row, known, tried, row_present, row_depth in zip(rows, exacts, attempts, present, depth):
            got = {pid: int(d) for pid, met, d in zip(plans, row_present, row_depth) if met}
            want = axis_plans_by_definition(runner.bouquet, contour, row, known)
            assert got == {p: d for p, d in want.items() if p not in tried}


def _tied_plans(contour, cell):
    """Do locations of two plans tie as the closest dominating ``cell``?"""
    dominating = [
        (sum(a - b for a, b in zip(loc, cell)), contour.plan_at[loc])
        for loc in contour.locations
        if all(a >= b for a, b in zip(loc, cell))
    ]
    closest = min(dominating)[0] if dominating else None
    return len({pid for distance, pid in dominating if distance == closest}) > 1


class TestGatherTables:
    @pytest.mark.parametrize("name", ["EQ", "2D_H_Q8a", "3D_H_Q5", "4D_H_Q8"])
    def test_stacked_tables_match_the_ray_walk(self, lab, eq_bouquet, name):
        """Every contour's AxisPlans tables — built for all contours of
        the bouquet in one pass — answer at every grid cell and along
        every axis as the cell-by-cell ray walk and the covering-location
        search do, first-wins among equidistant locations; the depths are
        each plan's error-node depth per dimension."""
        bouquet = eq_bouquet if name == "EQ" else lab.build(name).bouquet
        space = bouquet.space
        dims = space.dimensions
        ties = 0
        for k, contour in enumerate(bouquet.contours):
            columns, depths = bouquet.contour_tables(k).gather
            plan_ids = contour.plan_ids
            want = np.full((len(dims), space.size), -1)
            for flat, cell in enumerate(space.locations()):
                for d in range(len(dims)):
                    end = ray_end_by_walk(bouquet, contour, cell, d)
                    owner = None if end is None else covering_location(contour, end)
                    if owner is not None:
                        want[d, flat] = plan_ids.index(contour.plan_at[owner])
                        ties += _tied_plans(contour, end)
            assert columns.tolist() == want.tolist()
            assert depths.tolist() == [
                [error_node_depth(bouquet.registry.plan(pid), frozenset((dim.pid,))) for dim in dims]
                for pid in plan_ids
            ]
        if name in ("3D_H_Q5", "4D_H_Q8"):
            assert ties  # rays that end where two plans' locations tie


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

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_many_rows_match_the_scalar_prune(self, runners, data):
        """A candidate is pruned iff its floor at q_run reaches the budget
        (within 1e-9); a plan not met is never pruned."""
        runner, contour, rows, exact = _draw_case(data, runners)
        budget = runner.budgets[runner.bouquet.contours.index(contour)]
        budget *= data.draw(st.sampled_from([1.0, 0.5, 0.1, 2.0]))
        dims = runner.space.dimensions
        unlearned = frozenset(dims[d].pid for d in range(len(dims)) if d not in exact)
        plans = contour.plan_ids
        floors = np.array([[runner._spill_floor(p, row, unlearned) for p in plans] for row in rows])
        present = np.array([[data.draw(st.booleans()) for _ in plans] for _ in rows])
        want = [
            [met and floor >= budget * (1 - 1e-9) for floor, met in zip(row_floors, row_met)]
            for row_floors, row_met in zip(floors.tolist(), present.tolist())
        ]
        assert pruned_by_floor(floors, present, budget).tolist() == want


class TestPickCandidate:
    def test_prefers_deep_error_nodes_within_group(self, runner_3d):
        # Same equivalence group (within 20%): the deeper error node wins.
        everyone = np.ones((1, 2), dtype=bool)
        assert pick([1, 2], np.array([[100.0, 105.0]]), np.array([[1, 3]]), everyone).tolist() == [2]

    def test_cost_dominates_across_groups(self, runner_3d):
        # Not in the cheapest group: depth cannot rescue the expensive one.
        everyone = np.ones((1, 2), dtype=bool)
        assert pick([1, 2], np.array([[10.0, 100.0]]), np.array([[0, 5]]), everyone).tolist() == [1]

    def test_no_productive_candidate_picks_none(self, runner_3d):
        nobody = np.zeros((2, 2), dtype=bool)
        costs, depth = np.ones((2, 2)), np.zeros((2, 2), dtype=np.int64)
        assert pick([1, 2], costs, depth, nobody).tolist() == [-1, -1]
        assert pick([], np.empty((2, 0)), np.empty((2, 0), dtype=np.int64), nobody[:, :0]).tolist() == [-1, -1]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_many_rows_match_the_sorted_pick(self, runners, data):
        """On AxisPlans candidates and their costs at q_run, some rows'
        candidates left out as unproductive: the pick the sorted
        definition makes, row by row."""
        runner, contour, rows, exact = _draw_case(data, runners)
        tables = _tables(runner.bouquet, contour)
        plans, present, depth = axis_plans(tables, np.array(rows), *_masks(tables, rows, exact))
        productive = present & np.array(
            [[data.draw(st.booleans()) for _ in plans] for _ in rows], dtype=bool
        ).reshape(present.shape)
        costs = np.array(
            [[runner._cost_at_values(p, row) for p in plans] for row in rows]
        ).reshape(present.shape)
        got = pick(plans, costs, depth, productive)
        for i, row in enumerate(rows):
            candidates = {p: int(depth[i, k]) for k, p in enumerate(plans) if productive[i, k]}
            want = pick_by_definition(candidates, lambda p: runner._cost_at_values(p, row)) if candidates else -1
            assert got[i] == want


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

    def test_only_the_equivalence_threshold_constant_is_accepted(self, eq_bouquet):
        """Both drivers pick under one threshold, so the runner takes no
        other (the frozen ledger still passes the constant)."""
        from repro.exceptions import BouquetError

        service = AbstractExecutionService(eq_bouquet, eq_bouquet.space.selectivities_at((10,)))
        BouquetRunner(eq_bouquet, service, equivalence_threshold=EQUIVALENCE_THRESHOLD)
        with pytest.raises(BouquetError):
            BouquetRunner(eq_bouquet, service, equivalence_threshold=0.3)

    def test_negative_delta_rejected(self, eq_bouquet):
        from repro.exceptions import BouquetError

        qa = eq_bouquet.space.selectivities_at((10,))
        service = AbstractExecutionService(eq_bouquet, qa)
        with pytest.raises(BouquetError):
            BouquetRunner(eq_bouquet, service, model_error_delta=-0.1)


class TestRunOpening:
    """A run opens on the first contour with a location dominating its
    start point, with the costing context at that point: both are the
    bouquet's, kept for the last start point and shared by every run
    from it.  Points after a spill are costed in the run's own contexts."""

    @staticmethod
    def probed(space, location, dims):
        """A start that knows ``dims`` exactly at ``location`` (the
        index-probed start of real data, in the cost-model world)."""
        values = space.selectivities_at(location)
        return [
            LearnedSelectivity(space.dimensions[d].pid, values[d], exact=True) for d in dims
        ]

    @pytest.mark.parametrize("mode", ["optimized", "basic"])
    def test_opens_on_first_dominating_contour(self, lab, mode):
        ql = lab.build("3D_DS_Q96")
        bouquet, space = ql.bouquet, ql.space
        opened_past_the_first = 0
        for location in itertools.product(*(range(0, n, 2) for n in space.shape)):
            qa = space.selectivities_at(location)
            for dims in ([0], [1, 2], [0, 1, 2]):
                known = self.probed(space, location, dims)
                runner = BouquetRunner(
                    bouquet, AbstractExecutionService(bouquet, qa, known), mode=mode
                )
                state, _ = runner._start()
                want = next(
                    (
                        k
                        for k, contour in enumerate(bouquet.contours)
                        if dominating_by_definition(bouquet, contour, state.qrun)
                    ),
                    len(bouquet.contours),
                )
                assert state.cid == want
                opened_past_the_first += want > 0
                # The contours the opening skips run nothing: a run from
                # the first contour is the same run.
                fresh = BouquetRunner(
                    bouquet, AbstractExecutionService(bouquet, qa, known), mode=mode
                )
                assert runner.run() == fresh._run_from(RunState(list(state.qrun), set(state.exact)))
        assert opened_past_the_first

    def test_start_context_shared_later_ones_per_run(self, lab):
        ql = lab.build("3D_DS_Q96")
        bouquet, space = ql.bouquet, ql.space
        runners = []
        for location in (space.corner, tuple(n // 2 for n in space.shape)):
            service = AbstractExecutionService(bouquet, space.selectivities_at(location))
            runners.append(BouquetRunner(bouquet, service))
            assert runners[-1].run().completed
        a, b = runners
        origin = tuple(dim.lo for dim in space.dimensions)
        assert a._contexts[origin] is b._contexts[origin]
        later = set(a._contexts) - {origin}
        assert later, "the corner run costs no point past its start"
        assert all(a._contexts[point] is not b._contexts.get(point) for point in later)
        # A point costed again costs no new node.
        plan_id = bouquet.contours[0].plan_ids[0]
        first = a._cost_at_values(plan_id, list(origin))
        costed = len(a._context(origin)._memo)
        assert a._cost_at_values(plan_id, list(origin)) == first
        assert len(a._context(origin)._memo) == costed > 0

    def test_simulating_every_location_opens_once(self, lab, monkeypatch):
        ql = lab.build("4D_H_Q8")
        bouquet, space = ql.bouquet, ql.space
        bouquet.opening("another start", lambda: None)  # the memo starts over
        opened = []
        real = BouquetRunner._open
        monkeypatch.setattr(
            BouquetRunner, "_open", lambda self, qrun: opened.append(tuple(qrun)) or real(self, qrun)
        )
        for location in np.ndindex(*space.shape):
            simulate_at(bouquet, location)
        origin = tuple(dim.lo for dim in space.dimensions)
        assert opened == [origin]
        kept = bouquet.opening((origin, frozenset()), lambda: pytest.fail("opening lost"))
        assert kept[0] == 0
