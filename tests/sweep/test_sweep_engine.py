"""The sweep engine's fields must equal, bit for bit, the literal scalar
Figure 13 of ``tests/conftest.py`` (``reference_field``), which shares
no decision with the two drivers, and the per-location runner: both
drivers spill through one model (``repro.core.runtime.spill``) and
charge the truth's costs in the same order."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import runtime
from repro.core.simulation import optimized_cost_field, simulate_at
from repro.robustness import optimized_field
from repro.obs import MemorySink, Tracer
from repro.sweep import SweepEngine
from repro.sweep import engine as engine_module
from repro.sweep.memo import sweep_cache
from repro.wlgen import CampaignConfig, build_env, run_query
from tests.conftest import campaign_pool_counters, reference_field


def _reference_field(bouquet):
    ref = reference_field(bouquet)
    shape = bouquet.space.shape
    out = np.empty(shape)
    for loc, total in ref.items():
        out[loc] = total
    return out


@pytest.fixture(scope="module")
def q3d(lab):
    return lab.build("3D_H_Q5")


class TestFieldEquality:
    def test_1d_matches_reference(self, eq_bouquet):
        field = SweepEngine(eq_bouquet).cost_field()
        np.testing.assert_array_equal(field, _reference_field(eq_bouquet))

    def test_3d_matches_reference(self, q3d):
        field = SweepEngine(q3d.bouquet).cost_field()
        np.testing.assert_array_equal(field, _reference_field(q3d.bouquet))

    def test_full_runs_are_charged_at_the_clamped_truth(self):
        """A grid's end point can sit an ulp past its dimension's ``hi``
        (``3D_H_Q7`` of the default-scale TPC-H lab, third dimension's
        last point), and the driver charges a full run at the truth
        clamped into ``[lo, hi]``; so does the sweep, not at the grid
        value."""
        from repro.bench.harness import Lab

        bouquet = Lab(tpcds_scale=0.001, resolutions={3: 7}).build("3D_H_Q7").bouquet
        space = bouquet.space
        assert any(grid[-1] > dim.hi for dim, grid in zip(space.dimensions, space.grids))
        np.testing.assert_array_equal(
            SweepEngine(bouquet).cost_field(), _reference_field(bouquet)
        )

    def test_subset_locations_dict_contract(self, q3d):
        locations = [(0, 0, 0), (2, 4, 6), (6, 6, 6), (3, 1, 5)]
        swept = optimized_cost_field(q3d.bouquet, locations=locations)
        assert set(swept) == set(locations)
        for loc in locations:
            ref = simulate_at(q3d.bouquet, loc, mode="optimized").total_cost
            assert swept[loc] == ref

    def test_default_engine_is_sweep_and_matches_reference(self, q3d):
        swept = optimized_cost_field(q3d.bouquet)
        ref = reference_field(q3d.bouquet)
        assert set(swept) == set(ref)
        for loc, total in ref.items():
            assert swept[loc] == total

    def test_campaign_pool_matches_reference(self, monkeypatch):
        """Every field a pass over the ledger's 31 ``eval_campaign``
        queries judges equals the scalar Figure 13's.  Their contours
        reach what the lab's grids do not: candidates of one equivalence
        group at different error depths, and ``q_run`` within the
        dominance tolerance of a contour location."""
        from repro.robustness import metrics

        swept, fields = metrics.optimized_field, []
        monkeypatch.setattr(
            metrics, "optimized_field", lambda bouquet: fields.append(bouquet) or swept(bouquet)
        )
        config = CampaignConfig(benchmark="tpcds", count=31)
        world = build_env(config)
        for index in range(config.count):
            assert run_query(world, config, index).status == "ok"
        assert len(fields) == config.count
        for bouquet in fields:
            np.testing.assert_array_equal(
                SweepEngine(bouquet).cost_field(), _reference_field(bouquet)
            )


class TestEngineMechanics:
    def test_totals_memo_short_circuits(self, q3d):
        engine = SweepEngine(q3d.bouquet)
        first = engine.cost_field()
        cache = sweep_cache(q3d.bouquet)
        costings_after_first = cache.coster.batched_costings
        second = engine.cost_field()
        assert np.array_equal(first, second)
        # The second sweep is answered from the totals memo: no new
        # batched costings at all.
        assert cache.coster.batched_costings == costings_after_first

    def test_refresh_invalidates_totals(self, q3d):
        engine = SweepEngine(q3d.bouquet)
        first = engine.cost_field()
        second = engine.cost_field(refresh=True)
        # One route: whichever sweep memoised the field, a refreshed
        # sweep repeats it bit for bit.
        assert np.array_equal(first, second)

    def test_array_entry_point_shape(self, q3d):
        field = optimized_field(q3d.bouquet)
        assert field.shape == q3d.space.shape
        assert (field > 0).all()

    def test_a_subset_sweep_costs_the_truth_of_its_own_rows(self, q3d, monkeypatch):
        """The truth is costed once per sweep, in one context over the
        locations asked for — not over the grid — and that context does
        not outlive the sweep."""
        engine = SweepEngine(q3d.bouquet)
        engine.cache.invalidate()
        coster = engine.cache.coster
        contexts, truths = [], []
        spill = engine_module.spill

        def recording(plan, unlearned, lows, budget, at_truth, rows):
            truths.append(at_truth)
            return spill(plan, unlearned, lows, budget, at_truth, rows)

        def counting(values):
            contexts.append(len(values))
            return type(coster).context(coster, values)

        monkeypatch.setattr(engine_module, "spill", recording)
        monkeypatch.setattr(coster, "context", counting)
        locations = [(0, 0, 0), (2, 4, 6), (6, 6, 6), (3, 1, 5), (1, 1, 1)]
        totals = engine.totals(locations)
        assert engine._at_truth is None
        assert contexts[0] == len(locations) and max(contexts) <= len(locations)
        assert truths and all(at_truth is truths[0] for at_truth in truths)
        columns = [truths[0].assignment[dim.pid] for dim in q3d.space.dimensions]
        assert {len(column) for column in columns} == {len(locations)}
        reference = reference_field(q3d.bouquet, locations)
        np.testing.assert_array_equal(totals, [reference[loc] for loc in locations])

    def test_a_memoised_cost_array_cannot_be_written_to(self, q3d):
        """``BatchCoster.cost`` hands out the context's own array, not a
        copy: read-only is what keeps one caller's write out of every
        other plan that embeds the node."""
        coster = sweep_cache(q3d.bouquet).coster
        qrun = sweep_cache(q3d.bouquet).truth[:9]
        ctx = coster.context(qrun)
        plan = coster.plan(q3d.bouquet.plan_ids[0])
        cost = coster.cost(plan.estimate(ctx).cost, len(qrun))
        assert cost is plan.estimate(ctx).cost and not cost.flags.writeable
        with pytest.raises(ValueError):
            cost[0] = 0.0
        with pytest.raises(ValueError):
            cost.view().setflags(write=True)


class TestCarriedCosting:
    def test_every_gather_equals_a_fresh_costing(self, q3d, monkeypatch):
        """A round costs nothing itself: its spill floors, candidate
        costs and full-run costs are gathered from the contexts its rows'
        ``q_run`` were costed in (the origin's, or the one the round that
        learned it built), and each is bit-equal to costing the rows'
        ``q_run`` in a fresh context."""
        engine = SweepEngine(q3d.bouquet)
        engine.cache.invalidate()
        coster = engine.cache.coster
        gathered = engine._costs
        contexts = set()

        def checking(rows, nodes, wanted=None):
            got = gathered(rows, nodes, wanted)
            fresh = coster.context(engine._qrun[rows])
            for k, node in enumerate(nodes):
                want = coster.cost(node.estimate(fresh).cost, len(rows))
                read = np.ones(len(rows), dtype=bool) if wanted is None else wanted[:, k]
                assert got[read, k].tobytes() == want[read].tobytes()
                assert np.isinf(got[~read, k]).all()
            contexts.update(engine._ctx[rows].tolist())
            return got

        monkeypatch.setattr(engine, "_costs", checking)
        field = engine.cost_field()
        # The origin's, and the six of the rounds whose spills left rows
        # to go on.
        assert contexts == set(range(7))
        np.testing.assert_array_equal(field, _reference_field(q3d.bouquet))


class TestCampaignPoolCounts:
    def test_spill_searches_of_the_ledger_pool(self):
        """Counts, so the gains are not only timings: a pass over the 31
        ``eval_campaign`` queries evaluates spill nodes' formulas at most
        1,300 times (802 today; the two 40-step loops made 5,748), in 315
        rounds that spill 351 times.  The cohort engine took 498 cohort
        steps and finished 402 locations through the scalar runner."""
        counters = campaign_pool_counters()
        assert counters["sweep.spill_formula_evaluations"] <= 1300
        assert (counters["sweep.steps"], counters["sweep.spills"]) == (315, 351)


def _cold_sweep(bouquet):
    """A traced sweep over an emptied memo: its field, the ``sweep.field``
    span's attributes and the counters."""
    tracer = Tracer(MemorySink())
    engine = SweepEngine(bouquet, tracer=tracer)
    engine.cache.invalidate()
    field = engine.cost_field()
    (span,) = [
        record["attrs"]
        for record in tracer.sink.records
        if record["type"] == "span_end" and record["name"] == "sweep.field"
    ]
    return field, span, tracer.snapshot()["counters"]


class TestRounds:
    """Every location is a row of one array state, advanced in (contour,
    spills taken on it) rounds; no location leaves it for another route."""

    def test_rounds_of_3d_h_q5(self, q3d):
        field, span, counters = _cold_sweep(q3d.bouquet)
        assert (span["steps"], span["spills"]) == (13, 12)
        assert (counters["sweep.steps"], counters["sweep.spills"]) == (13, 12)
        assert not any(name.startswith(("sweep.cohort", "sweep.residue")) for name in counters)
        assert not {"cohorts", "splits", "residue"} & set(span)
        reference = reference_field(q3d.bouquet)
        assert all(field[loc] == total for loc, total in reference.items())

    def test_a_sweep_runs_no_scalar_driver(self, q3d, monkeypatch):
        """No :class:`BouquetRunner` and no :class:`AbstractExecutionService`
        is constructed inside a sweep."""
        constructed = []

        def refusing(cls):
            def init(self, *args, **kwargs):
                constructed.append(cls.__name__)
                raise AssertionError(f"{cls.__name__} constructed inside a sweep")

            monkeypatch.setattr(cls, "__init__", init)

        refusing(runtime.BouquetRunner)
        refusing(runtime.AbstractExecutionService)
        field, _span, _counters = _cold_sweep(q3d.bouquet)
        monkeypatch.undo()
        assert constructed == []
        np.testing.assert_array_equal(field, _reference_field(q3d.bouquet))


    def test_spill_floors_follow_each_rows_exact_dimensions(self, monkeypatch):
        """Rows of one round may have learned different dimensions
        exactly.  Each row prunes on its own spill floors: the first node
        reading a dimension it has not learned (the whole plan without
        one) at its ``q_run``, as the literal Figure 13 does.  Checked
        over the campaign pool, whose rounds mix exact patterns."""
        from repro.optimizer.plans import first_error_node

        recorded, checked = [], {"rows": 0, "mixed": 0}
        axis, prune, pick = engine_module.axis_plans, engine_module.pruned_by_floor, SweepEngine._pick

        def checking(self, rows, tables, columns, budget):
            qrun, exact = self._qrun[rows].copy(), self._exact[rows].copy()
            winner = pick(self, rows, tables, columns, budget)
            (plans, present), floors = recorded.pop(0), recorded.pop(0)
            coster, dims = self.cache.coster, self.space.dimensions
            fresh = coster.context(qrun)
            for r, known in enumerate(exact.tolist()):
                unlearned = frozenset(dim.pid for dim, k in zip(dims, known) if not k)
                for k, pid in enumerate(plans):
                    if present[r, k]:
                        plan = coster.plan(pid)
                        node = first_error_node(plan, unlearned) or plan
                        want = coster.cost(node.estimate(fresh).cost, len(rows))[r]
                        assert floors[r, k].tobytes() == want.tobytes()
            checked["rows"] += len(rows)
            checked["mixed"] += len({tuple(known) for known in exact.tolist()}) > 1
            return winner

        def recording_axis_plans(*args):
            plans, present, depth = axis(*args)
            recorded.append((plans, present))
            return plans, present, depth

        def recording_prune(floors, *args):
            recorded.append(floors)
            return prune(floors, *args)

        monkeypatch.setattr(engine_module, "axis_plans", recording_axis_plans)
        monkeypatch.setattr(engine_module, "pruned_by_floor", recording_prune)
        monkeypatch.setattr(SweepEngine, "_pick", checking)
        campaign_pool_counters()
        assert checked["rows"] and checked["mixed"]


class TestPropertyEquality:
    """Hypothesis: engine totals == per-location simulate_at totals for
    arbitrary location samples, however few rows each round holds."""

    @given(data=st.data(), dims=st.sampled_from([1, 3]))
    @settings(max_examples=10, deadline=None)
    def test_engine_matches_simulate_at(self, lab, eq_bouquet, data, dims):
        bouquet = eq_bouquet if dims == 1 else lab.build("3D_H_Q5").bouquet
        shape = bouquet.space.shape
        locations = data.draw(
            st.lists(
                st.tuples(
                    *(st.integers(min_value=0, max_value=r - 1) for r in shape)
                ),
                min_size=1,
                max_size=8,
                unique=True,
            )
        )
        engine = SweepEngine(bouquet)
        engine.cache.invalidate()
        totals = engine.totals(locations)
        for loc, total in zip(locations, totals):
            ref = simulate_at(bouquet, loc, mode="optimized").total_cost
            assert total == ref
