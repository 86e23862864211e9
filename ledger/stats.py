"""Robust estimators for the ledger: percentiles, slot medians, spreads.

Everything here is pure arithmetic on lists of floats so the self-tests
can check it on hand-made samples.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

import numpy as np

#: Two neighbouring percentiles further apart than this straddle a
#: latency mode: the reported percentile would flip between the modes
#: from run to run on identical code.
CLIFF_RATIO = 1.5

#: The reported percentiles and the neighbours the cliff guard compares.
CLIFF_PAIRS = {"p50": (45.0, 55.0), "p90": (87.0, 93.0)}


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    if not len(values):
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(values, q))


def slot_latencies(passes: Sequence[Sequence[float]]) -> List[float]:
    """Best (smallest) sample of each op slot across the passes.

    ``passes[p][s]`` is slot ``s`` as measured in pass ``p``.  Every pass
    runs the identical op list against identically prepared state, with
    one client and caches warm, so a slot's samples differ only by what
    the machine adds: scheduler, hypervisor and neighbour noise, which
    can slow an op down but never speed it up.  On this 2-vCPU box ten
    identical runs spread 7.1% (IQR/median) on the median of slot
    *medians* and 4.0% on the median of slot *minima*, and throughput
    from pass wall times 11.3% against 4.5% from the sum of slot minima,
    so the minimum is the estimator.  Costs the program really pays on a
    slot (a GC pause at a fixed allocation count, a cache eviction) recur
    in every pass and stay in the minimum.
    """
    if not passes:
        raise ValueError("no passes")
    width = len(passes[0])
    if any(len(row) != width for row in passes):
        raise ValueError("passes differ in length")
    return [min(row[s] for row in passes) for s in range(width)]


def iqr_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for n < 2)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def cliff_report(slots: Sequence[float]) -> Dict[str, Dict[str, float]]:
    """For each reported percentile: its neighbours and their ratio."""
    report = {}
    for name, (below, above) in CLIFF_PAIRS.items():
        lo, hi = percentile(slots, below), percentile(slots, above)
        report[name] = {
            f"p{below:g}": lo,
            f"p{above:g}": hi,
            "ratio": hi / lo if lo > 0 else float("inf"),
        }
    return report


def cliffs(slots: Sequence[float]) -> List[str]:
    """Names of the reported percentiles that sit on a latency cliff."""
    return [
        name
        for name, row in cliff_report(slots).items()
        if row["ratio"] > CLIFF_RATIO
    ]
