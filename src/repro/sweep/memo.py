"""Per-bouquet memoization for the sweep engine.

Two reuse layers, both keyed on the (immutable) bouquet and stashed on
the bouquet object itself (``bouquet._sweep_cache``), so every consumer
of the same bouquet — robustness metric entry points, the bench harness,
serving warm-ups, a verification sample after a full sweep — shares one
cache:

* **Result memo** — a full-grid totals array (NaN = not yet swept).
  Locations whose trace has already been simulated are answered with a
  gather; only the uncovered remainder is swept.  This is what makes
  "sweep the grid, then verify a sample" cost one sweep, not two.
* **Costing memo** — the :class:`~repro.sweep.cohorts.BatchCoster` plan
  metadata (first error nodes), built once per bouquet.  The per-contour
  decision tables are the bouquet's own
  (:meth:`~repro.core.bouquet.PlanBouquet.contour_tables`), shared with
  the scalar runner.

Shared climb prefixes are not memoised here: within a sweep a round
costs, spills and decides for all its rows at once (see
:mod:`repro.sweep.engine`), and across sweeps the result memo answers
before any prefix is walked.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.bouquet import PlanBouquet
from .cohorts import BatchCoster

__all__ = ["SweepCache", "sweep_cache"]


class SweepCache:
    """Everything the engine memoizes per bouquet."""

    def __init__(self, bouquet: PlanBouquet):
        self.bouquet = bouquet
        self.coster = BatchCoster(bouquet)
        space = bouquet.space
        #: Flat per-grid-cell totals; NaN marks locations not yet swept.
        self.totals = np.full(space.size, np.nan)
        # Clamped truth per grid cell and dim (assignment_for semantics).
        clamped = [
            np.minimum(dim.hi, np.maximum(dim.lo, grid))
            for dim, grid in zip(space.dimensions, space.grids)
        ]
        meshes = np.meshgrid(*clamped, indexing="ij")
        self.truth = np.stack([m.ravel() for m in meshes], axis=1)

    def known(self, flat: np.ndarray) -> np.ndarray:
        """Mask of flat grid indices whose totals are already cached."""
        return ~np.isnan(self.totals[flat])

    def store(self, flat: np.ndarray, totals: np.ndarray) -> None:
        self.totals[flat] = totals

    def invalidate(self) -> None:
        """Drop cached totals (keeps the costing memo)."""
        self.totals.fill(np.nan)


def sweep_cache(bouquet: PlanBouquet) -> SweepCache:
    """The per-bouquet sweep cache, created on first use.

    ``PlanBouquet`` is a plain (unhashable) dataclass, so the cache rides
    on the instance itself rather than a global WeakKeyDictionary.
    """
    cache: Optional[SweepCache] = getattr(bouquet, "_sweep_cache", None)
    if cache is None:
        cache = SweepCache(bouquet)
        bouquet._sweep_cache = cache
    return cache
