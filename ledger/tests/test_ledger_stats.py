"""Estimator arithmetic on hand-made samples."""

import pytest

from ledger import harness, stats
from ledger.spans import SpanRecorder
from ledger.workloads.base import Workload


def test_percentile_interpolates_between_closest_ranks():
    values = [40.0, 10.0, 30.0, 20.0]  # sorted: 10 20 30 40
    assert stats.percentile(values, 0) == 10.0
    assert stats.percentile(values, 100) == 40.0
    assert stats.percentile(values, 50) == 25.0
    assert stats.percentile(values, 90) == pytest.approx(37.0)
    assert stats.percentile([7.0], 90) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_slot_latency_is_the_best_sample_of_each_slot():
    passes = [
        [1.0, 9.0, 5.0],
        [3.0, 2.0, 5.5],
        [2.0, 4.0, 4.0],
    ]
    assert stats.slot_latencies(passes) == [1.0, 2.0, 4.0]


def test_slot_latencies_need_equal_length_passes():
    with pytest.raises(ValueError):
        stats.slot_latencies([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        stats.slot_latencies([])


def test_iqr_spread_matches_statistics_quantiles():
    values = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]
    # quantiles(n=4) of the sorted sample: q1 = 98.75, q3 = 101.25
    assert stats.iqr_spread(values) == pytest.approx(2.5 / 100.0)
    assert stats.iqr_spread([5.0]) == 0.0


def test_cliff_guard_flags_a_percentile_between_two_modes():
    # 88% of the slots at 2 ms, 12% at 80 ms: p90 sits on the cliff,
    # p50 deep inside the fast mode.
    bimodal = [0.002] * 88 + [0.080] * 12
    assert stats.cliffs(bimodal) == ["p90"]
    report = stats.cliff_report(bimodal)
    assert report["p50"]["ratio"] == pytest.approx(1.0)
    assert report["p90"]["p87"] == pytest.approx(0.002)
    assert report["p90"]["p93"] == pytest.approx(0.080)
    smooth = [0.001 * (1 + i / 100.0) for i in range(100)]
    assert stats.cliffs(smooth) == []


def make_span(recorder, name, start, end, parent, op, round_=0):
    recorder.spans.append(
        {"name": name, "start": start, "end": end, "parent": parent, "op": op, "round": round_}
    )
    return len(recorder.spans) - 1


def test_self_time_is_span_minus_children():
    recorder = SpanRecorder()
    driver = make_span(recorder, "core.driver", 0.0, 10.0, None, op=0)
    make_span(recorder, "executor.run", 1.0, 4.0, driver, op=0)
    make_span(recorder, "executor.run", 5.0, 9.0, driver, op=0)
    assert recorder.self_times() == [3.0, 3.0, 4.0]
    per_op = recorder.per_op()
    assert per_op["core.driver"] == {0: 3.0}
    assert per_op["executor.run"] == {0: 7.0}
    assert recorder.layer_ms("executor.run") == 7000.0
    assert recorder.layer_ms("never.entered") == 0.0


def test_replay_keeps_the_best_round_and_coverage_sums_layers():
    recorder = SpanRecorder()
    make_span(recorder, "query.parse", 0.0, 2.0, None, op=0, round_=0)
    make_span(recorder, "query.parse", 5.0, 6.0, None, op=0, round_=1)
    make_span(recorder, "core.driver", 6.0, 9.0, None, op=0, round_=1)
    make_span(recorder, "serve.envelope.codec", 9.0, 19.0, None, op=0, round_=1)
    assert recorder.per_op()["query.parse"] == {0: 1.0}
    recorder.direct = {0: 5.0}
    assert recorder.coverage(off_path=("serve.envelope.codec",)) == 0.8


def test_end_to_end_reference_keeps_the_best_round():
    recorder = SpanRecorder()
    recorder.op = 7
    assert recorder.end_to_end(lambda: "result") == "result"
    first = recorder.direct[7]
    recorder.direct[7] = 0.0  # nothing can beat it
    recorder.end_to_end(lambda: None)
    assert first > 0.0 and recorder.direct == {7: 0.0}


def test_recorder_nests_scopes():
    recorder = SpanRecorder()
    recorder.op = 3
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    outer, inner = recorder.spans
    assert (outer["parent"], inner["parent"]) == (None, 0)
    assert inner["op"] == 3 and outer["end"] >= inner["end"]


def measurement_of(latencies, cpus, setups, bursts):
    """A hand-made run: one list of slot samples per pass."""
    guard = harness.NoiseGuard()
    guard.bursts = bursts
    workload = Workload(seed=1, fraction=1.0, scratch="unused")
    workload.ops = [{"kind": "op"}] * len(latencies[0])
    passes = [
        harness.PassRecord(wall=sum(lat), latencies=lat, cpus=cpu)
        for lat, cpu in zip(latencies, cpus)
    ]
    return harness.Measurement(workload, setups, passes, guard, [], peak_rss_mb=64.0)


def test_timings_are_reported_at_the_reference_machine_speed():
    # A machine 25% slower than the reference box, with one noisy burst.
    bursts = [1.25 * harness.REFERENCE_BURST_S] * 19 + [1.0]
    # Set-ups carry the slowdown read just before each of them: the slow
    # machine is what made the second one the longest.
    setups = [(2.0, 1.0), (4.0, 2.5), (3.0, 1.25)]
    measurement = measurement_of(
        [[0.1, 0.3], [0.2, 0.2]], [[0.1, 0.2], [0.2, 0.1]], setups, bursts
    )
    assert measurement.guard.slowdown == pytest.approx(1.25)
    reported = measurement.end_to_end(1.0)
    assert reported["setup_s"] == pytest.approx(1.0 + 2.0)  # median of 2, 1.6, 2.4
    # Slot minima 0.1 and 0.2 s on the clock, 0.08 and 0.16 s at reference speed.
    assert reported["ops_per_s"] == pytest.approx(2 / 0.24)
    assert reported["op_p50_ms"] == pytest.approx(120.0)
    assert reported["op_p90_ms"] == pytest.approx(152.0)
    assert reported["cpu_ms_per_op"] == pytest.approx(80.0)
    assert reported["peak_rss_mb"] == 64.0


def test_selfcheck_fails_a_run_whose_percentile_sits_on_a_cliff(capsys):
    from ledger import run

    quiet = [harness.REFERENCE_BURST_S] * 10
    # serve_hot's old shape: 88% of the slots at 2 ms, 12% at 80 ms.
    bimodal = [0.002] * 88 + [0.080] * 12
    measurement = measurement_of([bimodal, bimodal], [bimodal, bimodal], [(1.0, 1.0)], quiet)
    values, failures = run.report_end_to_end(measurement, 0.5, selfcheck=True)
    assert len(failures) == 1 and "cliff at p90" in failures[0]
    assert "p87=2 p93=80" in capsys.readouterr().out
    assert values["op_p50_ms"] == pytest.approx(2.0)
    # Without --selfcheck the cliff is a warning, not a failure ...
    assert run.report_end_to_end(measurement, 0.5, selfcheck=False)[1] == []
    # ... and a smooth latency distribution passes the check.
    smooth = [0.001 * (1 + i / 100.0) for i in range(100)]
    measurement = measurement_of([smooth], [smooth], [(1.0, 1.0)], quiet)
    assert run.report_end_to_end(measurement, 0.5, selfcheck=True)[1] == []
