"""Crossing strategies: sequential parity, concurrent MSO collapse,
time-sliced determinism, and the registry/config surface."""

import pytest

from repro.core import BouquetRunner, simulate_at
from repro.core.runtime import AbstractExecutionService
from repro.core.simulation import basic_cost_field
from repro.exceptions import BouquetError
from repro.sched import (
    CROSSING_NAMES,
    ConcurrentCrossing,
    SequentialCrossing,
    TimeSlicedCrossing,
    resolve_crossing,
)


def run_at(queried, location, crossing, mode="basic"):
    """Drive one basic-mode bouquet execution with the given strategy."""
    bouquet = queried.bouquet
    qa_values = bouquet.space.selectivities_at(location)
    service = AbstractExecutionService(bouquet, qa_values)
    return BouquetRunner(bouquet, service, mode=mode, crossing=crossing).run()


def sample_locations(space, per_dim=4):
    """A deterministic spread of grid corners/interior points."""
    shape = space.shape
    picks = []
    for frac in (0.0, 0.33, 0.66, 1.0)[:per_dim]:
        picks.append(tuple(int(round(frac * (n - 1))) for n in shape))
    picks.append(tuple(n - 1 for n in shape))
    picks.append(tuple(0 for _ in shape))
    return sorted(set(picks))


class TestSequentialParity:
    def test_matches_vectorized_figure7_field(self, eq_bouquet):
        """The strategy-driven loop reproduces the closed-form basic
        cost field execution-for-execution (tier-1 anchor)."""
        field = basic_cost_field(eq_bouquet)
        for index in (0, 9, 21, 37, 50, 63):
            result = simulate_at(eq_bouquet, (index,), mode="basic")
            assert result.crossing == "sequential"
            assert result.total_cost == pytest.approx(field[index])
            # One core: elapsed cost-time IS the work.
            assert result.elapsed_cost == pytest.approx(result.total_cost)

    def test_explicit_sequential_identical_to_default(self, eq_bouquet):
        a = simulate_at(eq_bouquet, (33,), mode="basic")
        b = simulate_at(eq_bouquet, (33,), mode="basic", crossing="sequential")
        assert [(e.contour_index, e.plan_id, e.cost_spent) for e in a.executions] == [
            (e.contour_index, e.plan_id, e.cost_spent) for e in b.executions
        ]

    def test_plans_run_in_ascending_id_order(self, eq_bouquet):
        result = simulate_at(eq_bouquet, eq_bouquet.space.corner, mode="basic")
        by_contour = {}
        for record in result.executions:
            by_contour.setdefault(record.contour_index, []).append(record.plan_id)
        for plan_ids in by_contour.values():
            assert plan_ids == sorted(plan_ids)


class TestConcurrentCrossing:
    def test_completes_everywhere_sampled(self, q8a):
        for location in sample_locations(q8a.space):
            result = run_at(q8a, location, "concurrent")
            assert result.completed, location
            assert result.crossing == "concurrent"

    def test_elapsed_never_exceeds_work(self, q8a):
        for location in sample_locations(q8a.space):
            result = run_at(q8a, location, "concurrent")
            assert result.elapsed_cost <= result.total_cost * (1 + 1e-9)

    def test_elapsed_within_collapsed_bound(self, q8a):
        """The tentpole claim: elapsed MSO obeys the 1D bound
        (1+lambda)*r^2/(r-1) — rho collapsed away."""
        bound = q8a.bouquet.mso_bound / q8a.bouquet.rho
        for location in sample_locations(q8a.space):
            result = run_at(q8a, location, "concurrent")
            optimal = q8a.diagram.cost_at(location)
            assert result.elapsed_cost <= bound * optimal * (1 + 1e-6)

    def test_work_mso_no_worse_than_sequential_bound(self, q8a):
        bound = q8a.bouquet.mso_bound
        for location in sample_locations(q8a.space):
            result = run_at(q8a, location, "concurrent")
            optimal = q8a.diagram.cost_at(location)
            assert result.total_cost <= bound * optimal * (1 + 1e-6)

    def test_strictly_better_than_sequential_somewhere(self, q8a):
        """rho > 1 means some location pays for multiple plans
        sequentially but only the critical path concurrently."""
        assert q8a.bouquet.rho > 1
        improved = False
        for location in sample_locations(q8a.space):
            seq = run_at(q8a, location, "sequential")
            conc = run_at(q8a, location, "concurrent")
            assert conc.elapsed_cost <= seq.total_cost * (1 + 1e-9)
            if conc.elapsed_cost < seq.total_cost * (1 - 1e-9):
                improved = True
        assert improved

    def test_deterministic_accounting_across_runs(self, q8a):
        """Thread completion order must never leak into the account."""
        location = tuple(n - 1 for n in q8a.space.shape)
        accounts = []
        for _ in range(3):
            result = run_at(q8a, location, "concurrent")
            accounts.append(
                (
                    round(result.total_cost, 9),
                    round(result.elapsed_cost, 9),
                    tuple(
                        (r.contour_index, r.plan_id, round(r.cost_spent, 9))
                        for r in result.executions
                    ),
                )
            )
        assert accounts[0] == accounts[1] == accounts[2]

    def test_ledger_records_cancellations(self, q8a):
        location = tuple(n - 1 for n in q8a.space.shape)
        result = run_at(q8a, location, "concurrent")
        assert result.ledger is not None
        # Every cancelled straggler was charged exactly the elapsed cut-off.
        for contour in result.ledger.contours:
            for charge in contour.charges.values():
                if charge.cancelled:
                    assert charge.work <= contour.elapsed * (1 + 1e-9)

    def test_worker_cap_accepted(self, eq_bouquet):
        result = simulate_at(
            eq_bouquet, (40,), mode="basic", crossing=ConcurrentCrossing(max_workers=2)
        )
        assert result.completed


class TestTimeSlicedCrossing:
    def test_bit_identical_repeats(self, q8a):
        for location in sample_locations(q8a.space):
            runs = [run_at(q8a, location, "timesliced") for _ in range(2)]
            signatures = [
                (
                    r.total_cost,
                    r.elapsed_cost,
                    tuple(
                        (e.contour_index, e.plan_id, e.cost_spent, e.completed)
                        for e in r.executions
                    ),
                )
                for r in runs
            ]
            assert signatures[0] == signatures[1]

    def test_completes_within_sequential_bound(self, q8a):
        bound = q8a.bouquet.mso_bound
        for location in sample_locations(q8a.space):
            result = run_at(q8a, location, "timesliced")
            assert result.completed
            optimal = q8a.diagram.cost_at(location)
            assert result.total_cost <= bound * optimal * (1 + 1e-6)

    def test_cheap_location_never_leaves_first_contour(self, eq_bouquet):
        result = simulate_at(eq_bouquet, (0,), mode="basic", crossing="timesliced")
        assert result.completed
        first = result.executions[0].contour_index
        assert {e.contour_index for e in result.executions} == {first}
        plans = len(eq_bouquet.contours[0].plan_ids)
        assert result.total_cost <= plans * eq_bouquet.budgets[0] * (1 + 1e-9)

    def test_quanta_validation(self):
        with pytest.raises(ValueError):
            TimeSlicedCrossing(quanta=0)


class TestStrategySurface:
    def test_resolve_names_and_instances(self):
        assert resolve_crossing(None).name == "sequential"
        assert isinstance(resolve_crossing("sequential"), SequentialCrossing)
        assert isinstance(resolve_crossing("concurrent"), ConcurrentCrossing)
        assert isinstance(resolve_crossing("timesliced"), TimeSlicedCrossing)
        custom = TimeSlicedCrossing(quanta=8)
        assert resolve_crossing(custom) is custom

    def test_unknown_name_rejected(self):
        with pytest.raises(BouquetError):
            resolve_crossing("optimistic")

    def test_config_validates_crossing(self):
        from repro.api import BouquetConfig

        config = BouquetConfig(crossing="concurrent")
        assert config.to_dict()["crossing"] == "concurrent"
        assert "crossing" not in config.compile_knobs()  # runtime knob only
        with pytest.raises(BouquetError):
            BouquetConfig(crossing="bogus")

    def test_names_constant_covers_registry(self):
        for name in CROSSING_NAMES:
            assert resolve_crossing(name).name == name


class TestOptimizedModeDispatch:
    def test_optimized_sequential_uses_spill_driver(self, eq_bouquet):
        result = simulate_at(eq_bouquet, (40,), mode="optimized")
        assert any(e.spilled for e in result.executions) or result.completed
        assert result.crossing == "sequential"

    def test_optimized_with_concurrent_falls_back_to_crossing(self, eq_bouquet):
        """Non-sequential strategies supersede the spill-based optimized
        driver (which is inherently one-plan-at-a-time)."""
        result = simulate_at(
            eq_bouquet, (40,), mode="optimized", crossing="concurrent"
        )
        assert result.completed
        assert result.crossing == "concurrent"
        assert not any(e.spilled for e in result.executions)
