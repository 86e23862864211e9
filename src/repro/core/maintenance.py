"""Incremental bouquet maintenance under database scale-up (§8).

When the database grows, the original ESS no longer covers the error
space (cost surfaces shift; PK-FK dimension ceilings move with the PK
cardinalities).  Rebuilding the bouquet from scratch repeats mostly
redundant work — the paper flags incremental maintenance as an open
problem.  The strategy implemented here:

1. carry the old bouquet's *plan structures* over (they remain valid
   plans — only their costs changed) and re-cost them on the new ESS;
2. seed a small number of fresh optimizer calls on a coarse subgrid to
   discover any genuinely new plans the grown database demands;
3. rebuild contours/bouquet from the merged candidate set.

The refresh typically spends an order of magnitude fewer optimizer calls
than a from-scratch exhaustive rebuild while producing a bouquet whose
guarantee is intact (the candidate-diagram PIC upper-bounds the true
PIC, so measured MSO is still checked against the bound downstream).

When the refresh does *not* change the ESS shape — a statistics update
rather than a scale-up — :func:`refresh_bouquet` routes to the
delta-driven engine (:mod:`repro.drift`) instead: only drift-suspect
locations are re-planned and the result is bit-identical to a full
rebuild, not an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..ess.diagram import PlanDiagram, coarse_subgrid
from ..ess.space import SelectivitySpace
from ..exceptions import BouquetError
from ..optimizer.optimizer import Optimizer
from .bouquet import PlanBouquet, identify_bouquet


@dataclass
class RefreshResult:
    """Outcome of an incremental bouquet refresh.

    ``strategy`` records which engine ran: ``"seed-merge"`` (the
    scale-up path below), or the :mod:`repro.drift` engine's
    ``"delta"`` / ``"identity"`` when the ESS shape survived the
    refresh.  ``replanned_locations`` counts the grid locations the
    delta engine actually sent through the DP (0 on the seed path,
    whose cost unit is ``optimizer_calls``).
    """

    bouquet: PlanBouquet
    optimizer_calls: int
    reused_plan_count: int
    new_plan_count: int
    strategy: str = "seed-merge"
    replanned_locations: int = 0

    @property
    def total_candidates(self) -> int:
        return self.reused_plan_count + self.new_plan_count


def refresh_bouquet(
    old_bouquet: PlanBouquet,
    optimizer: Optimizer,
    new_space: SelectivitySpace,
    lambda_: Optional[float] = None,
    ratio: Optional[float] = None,
    seeds_per_dim: int = 3,
    artifact_store=None,
) -> RefreshResult:
    """Rebuild a bouquet on ``new_space`` reusing the old bouquet's plans.

    ``optimizer`` must target the *new* (scaled) schema; ``new_space``
    must be built over the same query shape (same predicate pids) so the
    old plan structures remain meaningful.

    The strategy follows from the inputs: the delta engine
    (:func:`repro.drift.refresh.delta_refresh`) runs whenever the ESS
    shape is unchanged — same dimensions, same grid, exhaustive-sized —
    and the seed-and-merge path otherwise.

    ``artifact_store`` may be a
    :class:`repro.serve.BouquetArtifactStore`; a refresh means the
    statistics world view changed, so every cached artifact whose
    statistics fingerprint differs from ``optimizer.statistics`` is
    dropped before the rebuild.
    """
    if artifact_store is not None:
        from ..serve.fingerprint import statistics_fingerprint

        artifact_store.invalidate_statistics(
            statistics_fingerprint(optimizer.statistics)
        )
    old_pids = {dim.pid for dim in old_bouquet.space.dimensions}
    new_pids = {dim.pid for dim in new_space.dimensions}
    if old_pids != new_pids:
        raise BouquetError(
            "new ESS has different error dimensions; refresh is not applicable"
        )
    lambda_ = old_bouquet.lambda_ if lambda_ is None else lambda_
    ratio = old_bouquet.ratio if ratio is None else ratio

    result = _try_delta_refresh(old_bouquet, optimizer, new_space, lambda_, ratio)
    if result is not None:
        return result

    registry = optimizer.registry(new_space.query)
    reused_ids = set()
    for plan_id in old_bouquet.plan_ids:
        plan = old_bouquet.registry.plan(plan_id)
        new_id, _ = registry.register(plan)
        reused_ids.add(new_id)

    # A handful of fresh optimizations to catch plans the scale-up needs.
    calls = 0
    seeded_ids = set()
    for location in coarse_subgrid(new_space, per_dim=seeds_per_dim):
        result = optimizer.optimize(
            new_space.query, assignment=new_space.assignment_at(location)
        )
        calls += 1
        seeded_ids.add(result.plan_id)

    diagram = PlanDiagram.from_plan_ids(
        optimizer, new_space, reused_ids | seeded_ids
    )
    bouquet = identify_bouquet(diagram, lambda_=lambda_, ratio=ratio)
    return RefreshResult(
        bouquet=bouquet,
        optimizer_calls=calls,
        reused_plan_count=len(reused_ids),
        new_plan_count=len(seeded_ids - reused_ids),
    )


def _try_delta_refresh(
    old_bouquet: PlanBouquet,
    optimizer: Optimizer,
    new_space: SelectivitySpace,
    lambda_: float,
    ratio: float,
) -> Optional[RefreshResult]:
    """Run the :mod:`repro.drift` engine when the ESS shape is unchanged.

    Returns ``None`` (letting the seed-and-merge path run) when the new
    space has a different grid, different dimension ranges, or is too
    large for the exhaustive diagram the delta engine patches against.
    """
    from ..api import EXHAUSTIVE_LIMIT
    from ..drift.refresh import delta_refresh
    from ..exceptions import DriftError

    old_space = old_bouquet.space
    compatible = (
        tuple((d.pid, d.lo, d.hi) for d in old_space.dimensions)
        == tuple((d.pid, d.lo, d.hi) for d in new_space.dimensions)
        and old_space.shape == new_space.shape
        and new_space.size <= EXHAUSTIVE_LIMIT
    )
    if not compatible:
        return None
    try:
        result = delta_refresh(
            old_bouquet, optimizer, new_space, lambda_=lambda_, ratio=ratio
        )
    except DriftError:
        return None
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
        replanned_locations=result.planned_locations,
    )
