"""The ledger benchmark: one command per workload.

    python3 ledger/run.py --workload serve_hot --seed 13 --seconds 22 --trace 0

prints every end-to-end metric by name with its unit, verifies the
program's outputs and exits non-zero on a failed check.  ``--trace 1``
is the separate traced run that prints the per-layer metrics instead.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os
import sys
import time

PROCESS_START = time.perf_counter()
LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(LEDGER_DIR)
OUT_DIR = os.path.join(LEDGER_DIR, "out")


def bootstrap() -> None:
    """Pin the hash seed, keep temp files in the checkout and make the
    program (``src/``) and this package importable."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    os.environ["TMPDIR"] = OUT_DIR
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def parse_args(argv=None):
    import argparse

    from ledger.metrics import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS])
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=22.0,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced, per-layer run")
    parser.add_argument("--smoke", action="store_true",
                        help="2 passes over 10%% op lists, one set-up")
    parser.add_argument("--selfcheck", action="store_true",
                        help="fail when a reported percentile sits on a latency cliff")
    return parser.parse_args(argv)


def fmt(value: float) -> str:
    return f"{value:.6g}"


def report_end_to_end(measurement, import_seconds: float, selfcheck: bool):
    """Print the end-to-end table; returns the metrics and, under
    ``selfcheck``, the cliff-guard failures."""
    from ledger import stats
    from ledger.metrics import END_TO_END

    values = measurement.end_to_end(import_seconds)
    slowdown = measurement.guard.slowdown
    slots = [seconds / slowdown for seconds in measurement.slots()]
    cliff = stats.cliff_report(slots)
    notes = {
        "setup_s": f"imports {import_seconds:.3f} + median of "
        + ", ".join(f"{s:.3f}/{d:.2f}" for s, d in measurement.setups),
        "ops_per_s": f"{measurement.ops} ops/pass, {len(measurement.passes)} passes",
    }
    for name, row in cliff.items():
        notes[f"op_{name}_ms"] = " ".join(
            f"{k}={fmt(v if k == 'ratio' else 1000 * v)}" for k, v in row.items()
        )
    for row in END_TO_END:
        print(
            f"  {row.name:<16}{fmt(values[row.name]):>12} {row.unit:<4}"
            f" (bound {row.bound:.0%})  {notes.get(row.name, '')}"
        )
    failures = []
    on_cliff = stats.cliffs(slots)
    if on_cliff:
        message = f"percentile cliff at {', '.join(on_cliff)} (neighbours > {stats.CLIFF_RATIO}x apart)"
        print(f"  WARNING: {message}")
        if selfcheck:
            failures.append(message)
    return values, failures


def run_workload(name: str, args, import_seconds: float) -> bool:
    import json
    import platform

    import numpy

    from ledger import harness
    from ledger.metrics import END_TO_END, PER_LAYER, PER_LAYER_UNITS
    from ledger.workloads import REGISTRY

    fraction = 0.1 if args.smoke else 1.0
    seconds = 0.0 if args.smoke else args.seconds
    min_passes = 2 if args.smoke else harness.MIN_PASSES

    def factory():
        return REGISTRY[name](args.seed, fraction, OUT_DIR)

    if args.trace:
        measurement, layers = harness.trace(factory, seconds, min_passes, OUT_DIR)
        print(f"ledger: workload={name} seed={args.seed} traced run")
        for row in PER_LAYER:
            applies = "" if name in row.workloads else "  (layer not exercised)"
            print(f"  {row.name:<34}{fmt(layers[row.name]):>12} {row.unit}{applies}")
        metrics = {
            key: {"value": value, "unit": PER_LAYER_UNITS[key]}
            for key, value in layers.items()
        }
        failures = list(measurement.failures)
    else:
        measurement = harness.measure(
            factory, seconds, 1 if args.smoke else harness.SETUP_REPS, min_passes
        )
        print(f"ledger: workload={name} seed={args.seed}")
        values, failures = report_end_to_end(
            measurement, import_seconds, args.selfcheck
        )
        failures += measurement.failures
        units = {row.name: row.unit for row in END_TO_END}
        metrics = {
            key: {"value": value, "unit": units[key]} for key, value in values.items()
        }
        for key, value in measurement.harness_metrics().items():
            print(f"  {key:<24}{fmt(value):>12}")
    attempted = measurement.attempted
    failed = sum(len(p.failed) for p in measurement.passes) + len(failures)
    for message in failures[:10]:
        print(f"  FAILED: {message}")
    if len(failures) > 10:
        print(f"  ... and {len(failures) - 10} more failed checks")
    print(
        f"  fail_ratio {fmt(failed / attempted)} "
        f"(ops_attempted={attempted} ops_failed={failed})"
    )
    info = {
        "workload": name,
        "seed": args.seed,
        "oplist_sha256": measurement.workload.digest(),
        "ops": measurement.ops,
        "passes": len(measurement.passes),
        "calibration_ms": [round(1000 * r, 2) for r in measurement.guard.readings],
        "machine_slowdown": measurement.guard.slowdown,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }
    print("info " + json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return failed == 0


def main(argv=None) -> int:
    args = parse_args(argv)

    import ledger.workloads  # noqa: F401  (imports the program: part of set-up)

    import_seconds = time.perf_counter() - PROCESS_START
    return 0 if run_workload(args.workload, args, import_seconds) else 1


if __name__ == "__main__":
    bootstrap()
    sys.exit(main())
