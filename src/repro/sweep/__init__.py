"""Vectorized ESS sweep engine for optimized-bouquet metrics.

The per-location reference (:func:`repro.core.simulation.simulate_at` in
``optimized`` mode, looped over the grid) re-runs the Figure 13 driver
from scratch at every location.  This package computes the same field
with two cooperating layers:

* :mod:`repro.sweep.engine` — cohort batching: locations sharing an
  execution prefix advance together, asking the runner's own decision
  functions (:mod:`repro.core.runtime`) about every member at once and
  splitting only when their traces diverge; :mod:`repro.sweep.cohorts`
  costs and executes for them.
* :mod:`repro.sweep.memo` — per-bouquet memoization: a full-grid
  totals memo (a re-sweep is a gather) plus the plan costing metadata,
  built once per bouquet.

The divergent residue that batching cannot amortize is finished per
location by the scalar :class:`~repro.core.runtime.BouquetRunner`,
resumed from the state the location's cohort had reached.

Entry points: :class:`SweepEngine` for repeated sweeps over one bouquet;
:func:`repro.core.simulation.optimized_cost_field` is its dict-shaped
front and :func:`repro.robustness.metrics.optimized_field` its
grid-shaped one.
"""

from .cohorts import BatchCoster
from .engine import Cohort, SweepEngine
from .memo import SweepCache, sweep_cache

__all__ = [
    "BatchCoster",
    "Cohort",
    "SweepCache",
    "SweepEngine",
    "sweep_cache",
]
