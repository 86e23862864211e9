"""repro.par — the parallel-execution substrate.

One persistent, reusable worker pool (fork-preferred, verified-spawn
fallback) with per-worker payload caching keyed by content digest, on
which wlgen campaigns (:mod:`repro.wlgen.campaign`) shard.  Payloads
are plain pickles.
"""

from .pool import (
    ParError,
    PoolStats,
    WorkerContext,
    WorkerPool,
    encode_payload,
    get_pool,
    leaked_segments,
    shutdown_pools,
)

__all__ = [
    "ParError",
    "PoolStats",
    "WorkerContext",
    "WorkerPool",
    "encode_payload",
    "get_pool",
    "leaked_segments",
    "shutdown_pools",
]
