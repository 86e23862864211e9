"""The command-line contract, on the smoke-sized benchmark."""

import json
import os
import subprocess
import sys
import time

from ledger.metrics import END_TO_END, PER_LAYER, WORKLOADS

from conftest import LEDGER_DIR, ROOT

RUN = [sys.executable, os.path.join(LEDGER_DIR, "run.py")]


def result(stdout):
    """The JSON result line of a run's output, or None."""
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith('{"correct"') else None


def test_smoke_runs_every_workload_and_every_check_in_25_seconds():
    # Without --selfcheck: a 10% op list has too few slots for the cliff
    # guard to hold under noise (test_ledger_stats covers its failing path).
    started = time.perf_counter()
    for name in WORKLOADS:
        done = subprocess.run(
            RUN + ["--workload", name, "--seed", "14", "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        payload = result(done.stdout)
        assert set(payload) == {"correct", "attempted", "failed", "metrics"}
        assert payload["correct"] is True and payload["failed"] == 0
        assert payload["attempted"] >= 1
        assert set(payload["metrics"]) == {m.name for m in END_TO_END}
        for metric in END_TO_END:
            entry = payload["metrics"][metric.name]
            assert entry["unit"] == metric.unit and entry["value"] > 0
        printed = [m.name for m in END_TO_END] + ["fail_ratio", "p45=", "p55=", "p87=", "p93="]
        for text in printed:
            assert text in done.stdout
    assert time.perf_counter() - started < 25.0


def test_traced_smoke_reports_every_per_layer_metric():
    done = subprocess.run(
        RUN + ["--workload", "serve_churn", "--seed", "14", "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    payload = result(done.stdout)
    assert payload["correct"] is True
    assert set(payload["metrics"]) == {m.name for m in PER_LAYER}
    # A 10% op list never overflows the 16-entry memory tier, so nothing
    # is ever loaded back from disk.
    absent = {"serve.cache.lookup_disk_ms"}
    for metric in PER_LAYER:
        if "serve_churn" in metric.workloads and metric.unit == "ms":
            if metric.name not in absent:
                assert payload["metrics"][metric.name]["value"] > 0, metric.name
    trace = os.path.join(LEDGER_DIR, "out", "trace-serve_churn.json")
    with open(trace) as handle:
        spans = json.load(handle)["spans"]
    assert {"name", "start", "end", "parent", "op", "round"} <= set(spans[0])


def test_a_checkout_without_the_program_fails_without_a_result(tmp_path):
    """The driver also runs the benchmark in a directory that holds only
    BENCHMARK.json and ledger/: it must exit non-zero, printing no result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        LEDGER_DIR, tmp_path / "ledger",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "ledger/run.py", "--workload", "serve_hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert result(done.stdout) is None
