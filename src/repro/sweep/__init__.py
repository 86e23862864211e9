"""Vectorized ESS sweep engine for optimized-bouquet metrics.

The per-location reference (:func:`repro.core.simulation.simulate_at` in
``optimized`` mode, looped over the grid) re-runs the Figure 13 driver
from scratch at every location.  This package computes the same field
with two cooperating layers:

* :mod:`repro.sweep.engine` — one array state, a row per location,
  advanced in (contour, spills taken on it) rounds: every round asks the
  runner's own decision functions (:mod:`repro.core.runtime`) about all
  its rows at once; :mod:`repro.sweep.cohorts` costs for them, and
  their spills are the runner's own (:func:`repro.core.runtime.spill`).
* :mod:`repro.sweep.memo` — per-bouquet memoization: a full-grid
  totals memo (a re-sweep is a gather) plus the plan costing metadata,
  built once per bouquet.

Entry points: :class:`SweepEngine` for repeated sweeps over one bouquet;
:func:`repro.core.simulation.optimized_cost_field` is its dict-shaped
front and :func:`repro.robustness.metrics.optimized_field` its
grid-shaped one.
"""

from .cohorts import BatchCoster
from .engine import SweepEngine
from .memo import SweepCache, sweep_cache

__all__ = [
    "BatchCoster",
    "SweepCache",
    "SweepEngine",
    "sweep_cache",
]
