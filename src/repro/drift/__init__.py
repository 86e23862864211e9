"""repro.drift — delta-driven bouquet maintenance.

The paper flags incremental maintenance under data change as an open
problem (§8); this package makes steady-state refresh cost proportional
to *drift* instead of to ESS size:

* :mod:`~repro.drift.delta` compares two statistics world views
  field-by-field (:func:`statistics_delta`) and maps the drift onto a
  query's predicates; :func:`perturb_statistics` is the matching
  localized-drift injector used by the CLI, the ledger, and the tests;
* :mod:`~repro.drift.refresh` is the engine: :func:`delta_refresh`
  re-plans only the ESS locations whose argmin plan can have changed
  under the delta (frontier diff + probe, DP-authoritative
  re-plan slab), and :func:`patch_compiled` applies it to a cached
  serving artifact.  :func:`bouquets_equal` is the bit-for-bit
  equivalence check against the reference full recompile.
"""

from .delta import (
    StatisticsDelta,
    TableDrift,
    perturb_statistics,
    statistics_delta,
)
from .refresh import (
    DeltaRefreshResult,
    PatchOutcome,
    bouquets_equal,
    delta_refresh,
    moved_base_pids,
    patch_compiled,
)

__all__ = [
    "DeltaRefreshResult",
    "PatchOutcome",
    "StatisticsDelta",
    "TableDrift",
    "bouquets_equal",
    "delta_refresh",
    "moved_base_pids",
    "patch_compiled",
    "perturb_statistics",
    "statistics_delta",
]
