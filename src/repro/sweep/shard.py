"""Process-pool sharding for the sweep residue.

Cohort batching thrives on homogeneous regions; the residue — cohorts
that split below the batching threshold, or whole sweeps under a
non-sequential crossing strategy (whose scheduling is inherently
per-location) — is driven through the reference per-location runner.
With ``workers > 1`` the residue is chunked across the persistent
:mod:`repro.par` pool (fork-preferred, verified-spawn fallback, payload
pickle hardening — all centralized there).

The shipped bouquet is a *shadow*: its plan-diagram matrices and every
materialized ``PlanCostCache`` plane are exported into shared memory
(:func:`repro.par.export_array`), so the pickled payload carries
segment names instead of grid bytes and workers map the planes
zero-copy.  The shadow also drops the parent-side sweep cache (a pure
acceleration structure workers rebuild nothing from).  Chunk results
are reassembled in submission order, so totals are identical at any
worker count.

Workers never trace (the payload's tracer degraded to the null tracer
while pickling) — the parent records the fan-out instead.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.bouquet import PlanBouquet
from ..core.simulation import simulate_at
from ..ess.space import Location
from ..exceptions import BouquetError
from ..obs.tracer import NULL_TRACER, Tracer

__all__ = ["run_residue"]


def _shm_payload(bouquet: PlanBouquet, tracer: Tracer) -> PlanBouquet:
    """A lean bouquet copy whose grid planes live in shared memory.

    The diagram's plan-id/cost matrices and all materialized cost-cache
    planes become :class:`~repro.par.ShmArray` views that pickle by
    segment name.  Exports are idempotent per source array, so repeated
    residue calls over the same bouquet produce byte-identical payloads
    and hit the per-worker payload cache.
    """
    from ..ess.diagram import PlanCostCache, PlanDiagram
    from ..par import export_array

    cache = bouquet.cost_cache
    diagram = bouquet.diagram
    shm_cache = PlanCostCache(
        cache.space, cache.optimizer, cache.registry, cache.max_plans
    )
    shm_cache.seed(
        {
            plan_id: export_array(array, tracer)
            for plan_id, array in cache.snapshot().items()
        }
    )
    shadow = PlanDiagram(
        diagram.space,
        export_array(diagram.plan_ids, tracer),
        export_array(diagram.costs, tracer),
        diagram.registry,
        shm_cache,
    )
    # replace() also sheds the per-bouquet sweep cache — a parent-side
    # acceleration structure workers never read.
    return dataclasses.replace(bouquet, diagram=shadow)


def _residue_chunk(ctx, payload, locations: List[Location]) -> List[Tuple[Location, float]]:
    bouquet, crossing = payload
    return [
        (location, simulate_at(bouquet, location, crossing=crossing).total_cost)
        for location in locations
    ]


def run_residue(
    bouquet: PlanBouquet,
    locations: Sequence[Location],
    crossing: Optional[str] = None,
    workers: Optional[int] = None,
    tracer: Tracer = NULL_TRACER,
) -> Dict[Location, float]:
    """Per-location totals for the residue, optionally pool-sharded."""
    locations = list(locations)
    if not locations:
        return {}
    if not workers or workers <= 1 or len(locations) == 1:
        return {
            location: simulate_at(bouquet, location, crossing=crossing).total_cost
            for location in locations
        }

    from ..par import ParError, get_pool

    payload = (_shm_payload(bouquet, tracer), crossing)
    chunk_size = max(1, len(locations) // (workers * 4))
    chunks = [
        locations[i : i + chunk_size]
        for i in range(0, len(locations), chunk_size)
    ]
    if tracer.enabled:
        tracer.event(
            "sweep.residue_fanout",
            workers=workers,
            chunks=len(chunks),
            locations=len(locations),
        )
        tracer.observe(
            "sweep.worker_utilization", min(len(chunks), workers) / workers
        )
    pool = get_pool(workers, tracer=tracer)
    try:
        results = pool.run(_residue_chunk, payload, chunks, tracer=tracer)
    except ParError as exc:
        raise BouquetError(f"sweep residue sharding failed: {exc}") from exc
    totals: Dict[Location, float] = {}
    for chunk_result in results:
        totals.update(chunk_result)
    return totals
