"""repro.drift — carrying compiled bouquets over a statistics refresh.

The paper flags bouquet maintenance under data change as an open
problem (§8).  This package answers it with identity or recompile:

* :mod:`~repro.drift.delta` holds :func:`perturb_statistics`, the
  localized-drift injector used by the CLI, the ledger, and the tests;
* :mod:`~repro.drift.refresh` carries an artifact over when nothing its
  compile sees has moved (:func:`carry_over`, zero optimizer work) and
  raises :class:`~repro.exceptions.DriftError` otherwise, so the caller
  recompiles; :func:`patch_compiled` is its serving-layer front, and
  :func:`bouquets_equal` the bit-for-bit check against a fresh compile.
"""

from .delta import perturb_statistics
from .refresh import (
    bouquets_equal,
    carry_over,
    moved_base_pids,
    patch_compiled,
)

__all__ = [
    "bouquets_equal",
    "carry_over",
    "moved_base_pids",
    "patch_compiled",
    "perturb_statistics",
]
