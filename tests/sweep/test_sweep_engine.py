"""The sweep engine's fields must equal, to rounding, the literal scalar
Figure 13 of ``tests/conftest.py`` (``reference_field``), which shares
no decision with the two drivers, and the per-location runner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simulation import optimized_cost_field, simulate_at
from repro.robustness import optimized_field
from repro.obs import MemorySink, Tracer
from repro.sweep import SweepEngine
from repro.sweep import engine as engine_module
from repro.sweep.memo import sweep_cache
from repro.wlgen import CampaignConfig, build_env, run_query
from tests.conftest import campaign_pool_counters, reference_field

RTOL = 1e-9


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
        np.testing.assert_allclose(
            field, _reference_field(eq_bouquet), rtol=RTOL, atol=0.0
        )

    def test_3d_matches_reference(self, q3d):
        field = SweepEngine(q3d.bouquet).cost_field()
        np.testing.assert_allclose(
            field, _reference_field(q3d.bouquet), rtol=RTOL, atol=0.0
        )

    def test_subset_locations_dict_contract(self, q3d):
        locations = [(0, 0, 0), (2, 4, 6), (6, 6, 6), (3, 1, 5)]
        swept = optimized_cost_field(q3d.bouquet, locations=locations)
        assert set(swept) == set(locations)
        for loc in locations:
            ref = simulate_at(q3d.bouquet, loc, mode="optimized").total_cost
            assert swept[loc] == pytest.approx(ref, rel=RTOL)

    def test_default_engine_is_sweep_and_matches_reference(self, q3d):
        swept = optimized_cost_field(q3d.bouquet)
        ref = reference_field(q3d.bouquet)
        assert set(swept) == set(ref)
        for loc, total in ref.items():
            assert swept[loc] == pytest.approx(total, rel=RTOL)

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
            np.testing.assert_allclose(
                SweepEngine(bouquet).cost_field(), _reference_field(bouquet), rtol=RTOL, atol=0.0
            )

    def test_residue_only_path_matches_batched(self, q3d, monkeypatch):
        batched = SweepEngine(q3d.bouquet).cost_field()
        monkeypatch.setattr(engine_module, "DEFAULT_RESIDUE_MIN", 10**9)
        residue = SweepEngine(q3d.bouquet)
        residue.cache.invalidate()
        np.testing.assert_allclose(
            residue.cost_field(), batched, rtol=RTOL, atol=0.0
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
        # The memoized field may have been produced by the reference
        # residue path in an earlier test; a refreshed batched sweep
        # agrees to rounding, not bit-exactly.
        np.testing.assert_allclose(first, second, rtol=RTOL, atol=0.0)

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
        run_spilled = coster.run_spilled

        def recording(plan_id, budget, unlearned, at_truth, rows):
            truths.append(at_truth)
            return run_spilled(plan_id, budget, unlearned, at_truth, rows)

        def counting(values):
            contexts.append(len(values))
            return type(coster).context(coster, values)

        monkeypatch.setattr(coster, "run_spilled", recording)
        monkeypatch.setattr(coster, "context", counting)
        locations = [(0, 0, 0), (2, 4, 6), (6, 6, 6), (3, 1, 5), (1, 1, 1)]
        totals = engine.totals(locations)
        assert engine._at_truth is None
        assert contexts[0] == len(locations) and max(contexts) <= len(locations)
        assert truths and all(at_truth is truths[0] for at_truth in truths)
        columns = [truths[0].assignment[dim.pid] for dim in q3d.space.dimensions]
        assert {len(column) for column in columns} == {len(locations)}
        reference = reference_field(q3d.bouquet, locations)
        np.testing.assert_allclose(
            totals, [reference[loc] for loc in locations], rtol=RTOL, atol=0.0
        )

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
        """A cohort step costs nothing itself: its spill floors, candidate
        costs and full-run costs are gathered from the context its
        ``q_run`` was costed in (the origin's, or the one the spill that
        learned it built), and each is bit-equal to costing the members'
        ``q_run`` in a fresh context."""
        engine = SweepEngine(q3d.bouquet)
        engine.cache.invalidate()
        coster = engine.cache.coster
        gathered = engine._costs
        contexts = []

        def checking(cohort, nodes, wanted=None):
            got = gathered(cohort, nodes, wanted)
            fresh = coster.context(cohort.qrun)
            for k, node in enumerate(nodes):
                want = coster.cost(node.estimate(fresh).cost, cohort.size)
                read = np.ones(cohort.size, dtype=bool) if wanted is None else wanted[:, k]
                assert got[read, k].tobytes() == want[read].tobytes()
                assert np.isinf(got[~read, k]).all()
            contexts.append(cohort.at)
            return got

        monkeypatch.setattr(engine, "_costs", checking)
        field = engine.cost_field()
        assert len({id(at) for at in contexts}) > 10  # the origin's and many spills'
        np.testing.assert_allclose(field, _reference_field(q3d.bouquet), rtol=RTOL, atol=0.0)


class TestCampaignPoolCounts:
    def test_spill_searches_of_the_ledger_pool(self):
        """A count, so the search's gain is not only a timing: a pass
        over the 31 ``eval_campaign`` queries evaluates spill nodes'
        formulas 821 times (336 spills at t = 1, then 132 searches);
        the two 40-step loops made 5,748 = 336 + 132 * 41.  The cohort
        partition itself is as it was."""
        counters = campaign_pool_counters()
        assert counters["sweep.spill_formula_evaluations"] <= 1300
        assert counters["sweep.residue_locations"] == 402
        assert counters["sweep.residue_executions"] == 489


class TestResidueRoute:
    """The residue has one route — the scalar runner, continuing each
    location from the state its cohort reached — so its totals equal
    the from-origin reference bit for bit, and the counts are the ones
    the pool-sharded engine reported."""

    @staticmethod
    def _cold_engine(bouquet, monkeypatch):
        """An engine over an emptied memo that records what it hands to
        the residue route and what it reports about it."""
        tracer = Tracer(MemorySink())
        engine = SweepEngine(bouquet, tracer=tracer)
        engine.cache.invalidate()
        residue = []
        finish = engine._finish_residue
        row_major = list(bouquet.space.locations())

        def recording(cohorts):
            for cohort in cohorts:
                flat = engine._flat[cohort.rows]
                residue.extend(row_major[f] for f in flat.tolist())
            return finish(cohorts)

        monkeypatch.setattr(engine, "_finish_residue", recording)

        def reported():
            (span,) = [
                record["attrs"]
                for record in tracer.sink.records
                if record["type"] == "span_end" and record["name"] == "sweep.field"
            ]
            return span, tracer.snapshot()["counters"]

        return engine, residue, reported

    def test_sequential_residue_of_3d_h_q5(self, q3d, monkeypatch):
        engine, residue, reported = self._cold_engine(q3d.bouquet, monkeypatch)
        field = engine.cost_field()
        span, counters = reported()
        assert (span["cohorts"], span["splits"], span["residue"]) == (26, 16, 23)
        assert counters["sweep.residue_locations"] == 23
        assert len(residue) == len(set(residue)) == 23
        reference = reference_field(q3d.bouquet, residue)
        assert [field[loc] for loc in residue] == [reference[loc] for loc in residue]

    def test_residue_resumes_instead_of_restarting(self, q3d, monkeypatch):
        """A count, not a clock: the residue runs only the executions its
        cohorts had not simulated yet."""
        engine, residue, reported = self._cold_engine(q3d.bouquet, monkeypatch)
        engine.cost_field()
        _span, counters = reported()
        from_origin = sum(
            simulate_at(q3d.bouquet, loc).execution_count for loc in residue
        )
        assert (len(residue), from_origin) == (23, 98)
        assert counters["sweep.residue_executions"] == 26 < from_origin


class TestPropertyEquality:
    """Hypothesis: engine totals == per-location simulate_at totals for
    arbitrary location samples, with the cohort machinery forced on
    (``DEFAULT_RESIDUE_MIN`` = 1) so every location flows through batching."""

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
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine_module, "DEFAULT_RESIDUE_MIN", 1)
            totals = engine.totals(locations)
        for loc, total in zip(locations, totals):
            ref = simulate_at(bouquet, loc, mode="optimized").total_cost
            assert total == pytest.approx(ref, rel=RTOL)
