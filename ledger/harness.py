"""The measuring loop: set-up repetitions, noise guard, timed passes.

A run is single-process and closed-loop with one client: set-up (done
``SETUP_REPS`` times, the last instance is kept), then timed passes over
the identical op list until ``--seconds`` is used up (at least
``MIN_PASSES``).  Every op slot is executed once per pass, so each slot
has one sample per pass and its latency is the best of them (see
``stats.slot_latencies`` for why not the median).  A fixed reference
kernel is sampled throughout the run; every timing is reported at the
reference machine speed (see ``NoiseGuard.slowdown``).
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import stats
from .metrics import PER_LAYER
from .spans import SpanRecorder
from .workloads.base import Workload

SETUP_REPS = 3
MIN_PASSES = 5

#: A calibration reading this far above the run's best means a noisy
#: neighbour; the guard then sleeps and retries before the pass starts.
CALIB_TOLERANCE = 1.08
RETRY_SLEEP_S = 0.5
RETRY_BUDGET_S = 2.0
BURSTS_PER_READING = 5

#: Seconds one burst of the reference kernel takes on the box the ledger
#: was sized on (2 vCPUs of a 2.1 GHz Xeon, CPython 3.11, numpy 2.4) when
#: nothing else runs.  It is the unit definition of the ledger's seconds —
#: "seconds on that box when quiet" — and nothing else: numbers taken on
#: another host or interpreter need a new baseline, exactly as raw clock
#: readings would.
REFERENCE_BURST_S = 0.0150


_MATRIX = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)


def reference_burst() -> float:
    """Seconds one burst of the reference kernel takes right here: a
    pure-Python loop plus a small numpy matmul, ~15 ms.

    The matrix is 48x48 on purpose: above BLAS's threading threshold a
    matmul reads 2 ms or 190 ms depending on whether its helper threads
    are awake, which measures BLAS and not the machine."""
    started = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    matrix = _MATRIX
    for _ in range(200):
        matrix = matrix @ _MATRIX
        matrix /= matrix.max()
    return time.perf_counter() - started


class NoiseGuard:
    """The reference kernel sampled around every set-up and before every
    timed pass.

    It does two things.  Before a timed pass it *delays* the start while
    the machine reads noisier than the run's best (a pass that has
    started is never dropped or re-run).  And the 10th percentile of all
    its bursts, over ``REFERENCE_BURST_S``, is the run's **machine
    slowdown**: this VM's speed wanders by 10-25% over minutes (both CPU
    time and wall time of identical code move with it), the kernel moves
    with it too, and it shares no code with the program, so dividing a
    run's timings by its slowdown removes the machine from the number
    without hiding anything the program does."""

    def __init__(self):
        self.bursts: List[float] = []
        #: Best burst of each reading taken before a timed pass.
        self.readings: List[float] = []
        self.retries = 0
        self.slept = 0.0

    def sample(self) -> float:
        """One reading: the best of a few bursts (one preemption inside
        the kernel is not a slow machine); every burst is kept."""
        bursts = [reference_burst() for _ in range(BURSTS_PER_READING)]
        self.bursts += bursts
        return min(bursts)

    def wait_for_quiet(self) -> None:
        reading = self.sample()
        best = min(self.readings + [reading])
        while reading > CALIB_TOLERANCE * best and self.slept < RETRY_BUDGET_S:
            time.sleep(RETRY_SLEEP_S)
            self.slept += RETRY_SLEEP_S
            self.retries += 1
            reading = self.sample()
            best = min(best, reading)
        self.readings.append(reading)

    @property
    def slowdown(self) -> float:
        """How much slower than the reference box this run's machine was."""
        return stats.percentile(self.bursts, 10.0) / REFERENCE_BURST_S

    @property
    def spread(self) -> float:
        return stats.iqr_spread(self.readings)


@dataclass
class PassRecord:
    wall: float
    #: Per slot: wall seconds and CPU seconds (process + pool workers).
    latencies: List[float]
    cpus: List[float]
    failed: List[int] = field(default_factory=list)


def run_pass(
    workload: Workload, guard: "NoiseGuard | None" = None, traced: bool = False
) -> PassRecord:
    """One pass over the op list; exactly ``run_op`` is inside each sample."""
    workload.begin_pass(traced)
    if guard is not None:
        guard.wait_for_quiet()
    gc.collect()
    count = len(workload.ops)
    latencies = [0.0] * count
    cpus = [0.0] * count
    failed: List[int] = []
    clock, cpu_clock, child_clock = (
        time.perf_counter,
        time.process_time,
        workload.child_cpu_seconds,
    )
    started = clock()
    for slot in range(count):
        cpu = cpu_clock() + child_clock()
        begin = clock()
        try:
            result = workload.run_op(slot)
        except Exception:
            # A raised exception is a failed op; the pass goes on.
            result = None
            failed.append(slot)
            traceback.print_exc(file=sys.stderr)
        latencies[slot] = clock() - begin
        cpus[slot] = cpu_clock() + child_clock() - cpu
        if result is not None and not workload.check_op(slot, result):
            failed.append(slot)
    wall = clock() - started
    workload.end_pass()
    return PassRecord(wall=wall, latencies=latencies, cpus=cpus, failed=failed)


def timed_passes(
    workload: Workload,
    guard: NoiseGuard,
    seconds: float,
    min_passes: int,
    alternate_traced: bool = False,
) -> List[PassRecord]:
    """Passes until ``seconds`` is used up, never fewer than ``min_passes``.

    With ``alternate_traced`` every second pass runs with the program's
    tracer on (the traced run interleaves the two kinds).
    """
    passes: List[PassRecord] = []
    longest_round = 0.0

    def busy() -> float:
        # The guard's sleeps do not count: a noisy run must not end up
        # with fewer passes than a quiet one.
        return time.perf_counter() - guard.slept

    started = busy()
    while True:
        elapsed = busy() - started
        if len(passes) >= min_passes and elapsed + longest_round > seconds:
            return passes
        traced = alternate_traced and len(passes) % 2 == 1
        passes.append(run_pass(workload, guard, traced=traced))
        longest_round = max(longest_round, busy() - started - elapsed)


@dataclass
class Measurement:
    workload: Workload
    #: Per set-up repetition: its seconds and the machine slowdown read
    #: around it.
    setups: List[Tuple[float, float]]
    passes: List[PassRecord]
    guard: NoiseGuard
    failures: List[str]
    #: ``ru_maxrss`` of the process when the timed section ended: set-ups
    #: and passes, not the output verification after them (the reference
    #: evaluator's memory is the checker's, and made the figure depend on
    #: which queries the seed put first).
    peak_rss_mb: float

    @property
    def ops(self) -> int:
        return len(self.workload.ops)

    @property
    def attempted(self) -> int:
        return self.ops * len(self.passes)

    def slots(self) -> List[float]:
        return stats.slot_latencies([p.latencies for p in self.passes])

    def end_to_end(self, import_seconds: float) -> Dict[str, float]:
        """The end-to-end metrics, timings at the reference machine speed."""
        slots = self.slots()
        cpus = stats.slot_latencies([p.cpus for p in self.passes])
        slowdown = self.guard.slowdown
        # A set-up has no repetitions to take the best of, so the run's
        # slowdown (the machine at its best during the run) does not
        # describe it; the readings taken around it do.  Ten identical
        # compile_cold runs spread 27% on the clock, 24% over the run's
        # slowdown and 7% over the adjacent readings.
        return {
            "setup_s": import_seconds / self.setups[0][1]
            + statistics.median(s / d for s, d in self.setups),
            "ops_per_s": self.ops / sum(slots) * slowdown,
            "op_p50_ms": 1000.0 * stats.percentile(slots, 50.0) / slowdown,
            "op_p90_ms": 1000.0 * stats.percentile(slots, 90.0) / slowdown,
            "cpu_ms_per_op": 1000.0 * sum(cpus) / self.ops / slowdown,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def harness_metrics(self) -> Dict[str, float]:
        return {
            "harness.pass_spread": stats.iqr_spread([p.wall for p in self.passes]),
            "harness.calib_spread": self.guard.spread,
            "harness.noise_retries": float(self.guard.retries),
            "harness.machine_slowdown": self.guard.slowdown,
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(factory: Callable[[], Workload], reps: int, guard: NoiseGuard):
    """Set up ``reps`` times (each with a full warm-up pass); returns the
    last instance, per rep its seconds and the machine slowdown around it
    (mean of the readings just before and just after), and the warm-up
    failures."""
    setups: List[Tuple[float, float]] = []
    workload = None
    before = guard.sample()
    for _ in range(reps):
        if workload is not None:
            workload.close()
        started = time.perf_counter()
        workload = factory()
        workload.setup()
        warm = run_pass(workload)
        seconds = time.perf_counter() - started
        after = guard.sample()
        setups.append((seconds, (before + after) / 2.0 / REFERENCE_BURST_S))
        before = after
    failures = [f"warm-up pass: op slot {slot} failed" for slot in warm.failed]
    return workload, setups, failures


def measure(
    factory: Callable[[], Workload],
    seconds: float,
    setup_reps: int = SETUP_REPS,
    min_passes: int = MIN_PASSES,
) -> Measurement:
    """The untraced run: every end-to-end metric comes from here."""
    guard = NoiseGuard()
    workload, setups, failures = set_up(factory, setup_reps, guard)
    try:
        passes = timed_passes(workload, guard, seconds, min_passes)
        peak = peak_rss_mb()
        failures += workload.verify()
    finally:
        workload.close()
    return Measurement(workload, setups, passes, guard, failures, peak)


#: Share of ``--seconds`` the traced run spends on its interleaved
#: untraced/traced passes; the rest is left for the replay and probes.
TRACE_PASS_SHARE = 0.5


def trace(
    factory: Callable[[], Workload], seconds: float, min_passes: int, out_dir: str
):
    """The traced run: per-layer metrics, spans written to ``out_dir``.

    Passes alternate between the program's null tracer and a memory
    tracer (their wall-time ratio is the tracing overhead, and the
    traced ones supply the counts); then the workload's layer replay
    records ledger spans around each layer's public calls.
    """
    guard = NoiseGuard()
    workload, setups, failures = set_up(factory, 1, guard)
    try:
        run_pass(workload, traced=True)  # warms the traced twin
        passes = timed_passes(
            workload,
            guard,
            TRACE_PASS_SHARE * seconds,
            2 * max(1, min_passes // 2),
            alternate_traced=True,
        )
        untraced, traced = passes[0::2], passes[1::2]
        measurement = Measurement(
            workload, setups, passes, guard, failures, peak_rss_mb()
        )
        recorder = SpanRecorder()
        layers = workload.trace(recorder)
        layers["obs.trace_overhead_ratio"] = sum(
            stats.slot_latencies([p.latencies for p in traced])
        ) / sum(stats.slot_latencies([p.latencies for p in untraced]))
        layers.update(measurement.harness_metrics())
        failures += workload.verify()
    finally:
        workload.close()
    names = [row.name for row in PER_LAYER]
    unknown = sorted(set(layers) - set(names))
    if unknown:
        raise KeyError(f"per-layer metrics missing from the dictionary: {unknown}")
    full = {name: float(layers.get(name, 0.0)) for name in names}
    recorder.write(
        f"{out_dir}/trace-{workload.name}.json",
        {"workload": workload.name, "seed": workload.seed, "layers": full},
    )
    return measurement, full
