"""repro.serve — cached, concurrent, multi-tenant serving of compiled
bouquets.

The serving layer turns the paper's compile-once/execute-many deployment
model (§4.2) into a working subsystem:

* :mod:`~repro.serve.envelope` is the calling convention: versioned
  :class:`ServeRequest`/:class:`ServeResponse` envelopes with a stable
  status + ``error_code`` taxonomy, shared by the in-process API, the
  HTTP wire, and the CLI;
* :mod:`~repro.serve.fingerprint` derives content-hash cache keys from
  (canonical query, statistics fingerprint, compile knobs);
* :mod:`~repro.serve.cache` is the two-tier artifact store (memory LRU
  over durable disk JSON) with statistics-driven invalidation;
* :mod:`~repro.serve.server` is the serving backend: single-flight
  compile deduplication, bounded worker pool, per-request budgets, and
  graceful degradation to the native-optimizer path;
* :mod:`~repro.serve.admission` + :mod:`~repro.serve.front` add the
  multi-tenant gateway: token-bucket quotas, bounded queues, and the
  degrade-before-shed overload ladder;
* :mod:`~repro.serve.http` is the asyncio-native HTTP/JSON front-end
  speaking the v1 envelope schema, over the bounded worker pool of its
  :class:`AsyncioRuntime`.
"""

from .admission import AdmissionController, AdmissionDecision, TenantQuota
from .cache import BouquetArtifactStore, STORE_FORMAT
from .envelope import (
    ERROR_CODES,
    REQUEST_FORMAT,
    RESPONSE_FORMAT,
    STATUSES,
    ServeRequest,
    ServeResponse,
)
from .fingerprint import (
    ArtifactKey,
    artifact_key,
    canonical_query_text,
    config_fingerprint,
    statistics_fingerprint,
)
from .front import AdmissionTicket, ServeGateway
from .http import AsyncioRuntime, AsyncServeClient, BouquetFrontEnd
from .server import BouquetServer

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionTicket",
    "ArtifactKey",
    "AsyncServeClient",
    "AsyncioRuntime",
    "BouquetArtifactStore",
    "BouquetFrontEnd",
    "BouquetServer",
    "ERROR_CODES",
    "REQUEST_FORMAT",
    "RESPONSE_FORMAT",
    "STATUSES",
    "ServeGateway",
    "ServeRequest",
    "ServeResponse",
    "TenantQuota",
    "artifact_key",
    "canonical_query_text",
    "config_fingerprint",
    "statistics_fingerprint",
]
