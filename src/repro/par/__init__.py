"""repro.par — the parallel-execution substrate.

One persistent, reusable worker pool (fork-preferred, verified-spawn
fallback) with per-worker payload caching keyed by content digest and
shared-memory numpy planes, shared by parallel POSP generation
(:meth:`repro.ess.diagram.PlanDiagram.exhaustive`, one batch slab per
worker), the sweep residue (:mod:`repro.sweep.shard`), and wlgen campaigns
(:mod:`repro.wlgen.campaign`).
"""

from .pool import (
    ParError,
    PoolStats,
    WorkerContext,
    WorkerPool,
    encode_payload,
    get_pool,
    shutdown_pools,
)
from .shm import (
    ShmArray,
    export_array,
    leaked_segments,
    live_segment_names,
    release_segments,
)

__all__ = [
    "ParError",
    "PoolStats",
    "ShmArray",
    "WorkerContext",
    "WorkerPool",
    "encode_payload",
    "export_array",
    "get_pool",
    "leaked_segments",
    "live_segment_names",
    "release_segments",
    "shutdown_pools",
]
