"""Repeatability of the ledger on identical code.

    python3 ledger/repeat.py --sets 2 --runs 5

runs the full benchmark — the workloads and ``run_seconds`` of
``BENCHMARK.json`` — in interleaved sets (run 1 of every set, then run 2
of every set, ...; run r uses seed ``FIRST_SEED + r - 1`` in every set)
and prints, per workload and end-to-end metric, every set's median, the
gap between the first and the last set in the metric's "worse"
direction, the spread (inter-quartile distance over the median) within
each set, and PASS/FAIL against the metric's bound.  It is the same
arithmetic the acceptance check applies to ten seeds run twice.  Every
run is appended as one line to ``ledger/history.jsonl``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(LEDGER_DIR)
HISTORY = os.path.join(LEDGER_DIR, "history.jsonl")
FIRST_SEED = 13
sys.path.insert(0, ROOT)

from ledger.metrics import END_TO_END  # noqa: E402
from ledger.stats import iqr_spread  # noqa: E402


def commit() -> str:
    """HEAD's short hash, ``+dirty`` when the work tree differs from it."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        return git("rev-parse", "--short", "HEAD") + (
            "+dirty" if git("status", "--porcelain") else ""
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(workload: str, seed: int, seconds: int, revision: str) -> dict:
    """One benchmark run; returns its history record."""
    command = [
        sys.executable, os.path.join(LEDGER_DIR, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed} failed (exit {done.returncode})")
    result = json.loads(lines[-1])
    record = json.loads(lines[-2][len("info "):])
    record.update(
        commit=revision,
        time=datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        seconds=seconds,
        correct=result["correct"],
        attempted=result["attempted"],
        failed=result["failed"],
        metrics={name: entry["value"] for name, entry in result["metrics"].items()},
    )
    return record


def worse_by(first: float, last: float, better: str) -> float:
    """How much worse ``last`` is than ``first``, as a share of ``first``."""
    change = (last - first) / first
    return -change if better == "higher" else change


def table(records, sets: int) -> str:
    """Markdown: per workload x metric, medians, gap, spreads, verdict."""
    labels = [chr(65 + s) for s in range(sets)]
    head = (
        ["workload", "metric", "unit"]
        + [f"median {label}" for label in labels]
        + ["worse by"]
        + [f"spread {label}" for label in labels]
        + ["bound", "verdict"]
    )
    rows = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for workload in dict.fromkeys(r["workload"] for r in records):
        for metric in END_TO_END:
            values = [
                [
                    r["metrics"][metric.name]
                    for r in records
                    if r["workload"] == workload and r["set"] == label
                ]
                for label in labels
            ]
            medians = [statistics.median(v) for v in values]
            spreads = [iqr_spread(v) for v in values]
            gap = worse_by(medians[0], medians[-1], metric.better)
            # Like the acceptance check: set-up time is judged on its
            # medians only, every other metric also on its spread.
            steady = metric.name == "setup_s" or max(spreads) <= metric.bound
            verdict = "PASS" if gap <= metric.bound and steady else "FAIL"
            rows.append(
                "| "
                + " | ".join(
                    [workload, metric.name, metric.unit]
                    + [f"{m:.5g}" for m in medians]
                    + [f"{gap:+.1%}"]
                    + [f"{s:.1%}" for s in spreads]
                    + [f"{metric.bound:.0%}", verdict]
                )
                + " |"
            )
    return "\n".join(rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    seconds = benchmark["run_seconds"]
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    revision = commit()
    records = []
    with open(HISTORY, "a") as history:
        for run in range(args.runs):
            for which in range(args.sets):
                for workload in workloads:
                    record = run_once(workload, FIRST_SEED + run, seconds, revision)
                    record["set"] = chr(65 + which)
                    history.write(json.dumps(record, sort_keys=True) + "\n")
                    history.flush()
                    records.append(record)
                    print(
                        f"# set {record['set']} run {run + 1}/{args.runs} {workload}"
                        f" seed {record['seed']}: ops_per_s"
                        f" {record['metrics']['ops_per_s']:.5g}",
                        file=sys.stderr,
                    )
    report = table(records, args.sets)
    print(
        f"{args.sets} interleaved sets of {args.runs} runs, {seconds} s each,"
        f" seeds {FIRST_SEED}..{FIRST_SEED + args.runs - 1}, commit {revision}\n"
    )
    print(report)
    return 1 if "FAIL" in report else 0


if __name__ == "__main__":
    sys.exit(main())
