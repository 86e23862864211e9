"""repro.runtime — the clock/dispatch abstraction behind the serving
front-end.

One interface (:class:`~repro.runtime.base.Runtime`), three
implementations:

==================  =====================  ================================
runtime             execution model        use case
==================  =====================  ================================
``AsyncioRuntime``  event loop + bounded   the HTTP/JSON front-end
                    thread pool            (:mod:`repro.serve.http`)
``SyncRuntime``     inline, real clock     CLI paths, threaded callers
``SimulatedRuntime``virtual clock +        tier-1: the load model, admission
                    deterministic events   tests (thousands of sessions, ms)
==================  =====================  ================================
"""

from __future__ import annotations

from .aio import AsyncioRuntime
from .base import Runtime, resolved
from .simulated import SimulatedRuntime
from .sync import SyncRuntime

__all__ = [
    "AsyncioRuntime",
    "Runtime",
    "SimulatedRuntime",
    "SyncRuntime",
    "resolved",
]
