"""Shared fixtures for the benchmark harness.

One :class:`~repro.bench.harness.Lab` is shared across every benchmark in
the session, so databases, plan diagrams, and bouquets are built once.
Each benchmark prints the rows/series of the paper artifact it reproduces
and appends them to ``results/`` for inclusion in EXPERIMENTS.md.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.harness import Lab

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")


@pytest.fixture(scope="session")
def lab(request):
    """The shared Lab; its telemetry summary lands next to the results
    (not on a ``--benchmark-disable`` run, which only checks the
    count-based guards and must leave the tracked results alone)."""
    lab = Lab()
    yield lab
    if request.config.getoption("benchmark_disable", False):
        return
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "_trace_summary.txt"), "w") as handle:
        handle.write(lab.trace_summary() + "\n")


@pytest.fixture(scope="session")
def record():
    """Write a rendered experiment report to results/<exp>.txt and stdout."""

    os.makedirs(RESULTS_DIR, exist_ok=True)

    def _record(exp_id: str, text: str):
        path = os.path.join(RESULTS_DIR, f"{exp_id}.txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")
        print(f"\n{text}\n")

    return _record
