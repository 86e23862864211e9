"""Incremental bouquet maintenance under database scale-up (§8).

When the database grows, the original bouquet no longer fits (cost
surfaces shift with the cardinalities).  Rebuilding it from scratch
repeats mostly redundant work — the paper flags incremental maintenance
as an open problem.  :func:`refresh_bouquet` is the front of the
delta-driven engine (:mod:`repro.drift`) for that case: the old
bouquet's plans are carried onto the new ESS, only drift-suspect
locations are re-planned, and the result is bit-identical to a full
rebuild, not an approximation.

The engine patches against the exhaustive diagram of an unchanged grid.
A new ESS with a different grid, different dimension ranges or more
than ``EXHAUSTIVE_LIMIT`` locations is not a refresh: the call raises
:class:`~repro.exceptions.BouquetError` and the caller recompiles (one
slab DP over the grid).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ess.space import SelectivitySpace
from ..exceptions import BouquetError, DriftError
from ..optimizer.optimizer import Optimizer
from .bouquet import PlanBouquet


@dataclass
class RefreshResult:
    """Outcome of an incremental bouquet refresh.

    ``strategy`` is the :mod:`repro.drift` engine's ``"delta"`` or
    ``"identity"``; ``optimizer_calls`` counts the grid locations it
    sent through the DP (what a from-scratch rebuild spends
    ``new_space.size`` on).
    """

    bouquet: PlanBouquet
    optimizer_calls: int
    reused_plan_count: int
    new_plan_count: int
    strategy: str


def refresh_bouquet(
    old_bouquet: PlanBouquet,
    optimizer: Optimizer,
    new_space: SelectivitySpace,
    artifact_store=None,
) -> RefreshResult:
    """Rebuild a bouquet on ``new_space`` reusing the old bouquet's plans.

    ``optimizer`` must target the *new* (scaled) schema; ``new_space``
    must be the old ESS over the new base assignment — same error
    dimensions, same grid, exhaustive-sized — or the call raises
    :class:`~repro.exceptions.BouquetError` (recompile instead).

    ``artifact_store`` may be a
    :class:`repro.serve.BouquetArtifactStore`; a refresh means the
    statistics world view changed, so every cached artifact whose
    statistics fingerprint differs from ``optimizer.statistics`` is
    dropped before the rebuild.
    """
    from ..api import EXHAUSTIVE_LIMIT
    from ..drift.refresh import delta_refresh

    if artifact_store is not None:
        from ..serve.fingerprint import statistics_fingerprint

        artifact_store.invalidate_statistics(
            statistics_fingerprint(optimizer.statistics)
        )
    if new_space.size > EXHAUSTIVE_LIMIT:
        raise BouquetError(
            f"new ESS has {new_space.size} locations, beyond the exhaustive "
            "diagram the refresh patches against; recompile instead"
        )
    try:
        result = delta_refresh(old_bouquet, optimizer, new_space)
    except DriftError as exc:
        raise BouquetError(f"refresh is not applicable: {exc}") from exc
    old_sigs = {
        old_bouquet.registry.plan(p).canonical_signature()
        for p in old_bouquet.plan_ids
    }
    new_sigs = {
        result.bouquet.registry.plan(p).canonical_signature()
        for p in result.bouquet.plan_ids
    }
    return RefreshResult(
        bouquet=result.bouquet,
        optimizer_calls=result.planned_locations,
        reused_plan_count=len(old_sigs & new_sigs),
        new_plan_count=len(new_sigs - old_sigs),
        strategy=result.strategy,
    )
