"""The serving wire schema: typed request/response envelopes.

One calling convention for every entry into the serving layer — the
in-process API (:meth:`repro.serve.BouquetServer.serve`), the asyncio
HTTP front-end (:mod:`repro.serve.http`), and the CLI — replacing the
keyword sprawl the old ``serve(query, budget=..., mode=..., ...)``
signature accreted.  Both envelopes round-trip over JSON with a
versioned ``format`` tag, so a wire client and an in-process caller see
the same schema.

Outcome taxonomy
----------------

``ServeResponse.status`` is one of :data:`STATUSES`:

* ``"ok"`` — bouquet execution completed under the MSO guarantee;
* ``"degraded"`` — answered (rows delivered) but without the guarantee:
  the native-optimizer fallback ran — the bouquet could not compile or
  execute, or its run ended unanswered — or overload stripped the
  request down the NAT ladder;
* ``"budget-exhausted"`` — the per-request cost budget ran out;
* ``"shed"`` — admission control rejected the request *before* any
  work (quota or queue backpressure) — distinct from ``failed``: a shed
  request was never attempted and is safe to retry elsewhere;
* ``"failed"`` — attempted but no answer could be produced.

Every non-``ok`` response carries a stable machine-readable
``error_code`` from :data:`ERROR_CODES`; the human-readable ``error``
string is advisory only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Union

from ..exceptions import BouquetError
from ..query.query import Query

__all__ = [
    "ERROR_CODES",
    "REQUEST_FORMAT",
    "RESPONSE_FORMAT",
    "STATUSES",
    "ServeRequest",
    "ServeResponse",
]

REQUEST_FORMAT = "repro.serve.request.v1"
RESPONSE_FORMAT = "repro.serve.response.v1"

#: Terminal outcomes a request can have (see module docstring).
STATUSES = ("ok", "degraded", "budget-exhausted", "shed", "failed")

#: The stable machine-readable error-code taxonomy.  Codes are part of
#: the wire contract: clients branch on them, so they never change
#: meaning — new failure modes get new codes.
ERROR_CODES = frozenset(
    {
        "invalid-request",  # envelope failed validation (failed)
        "parse-error",  # query text did not parse (failed)
        "compile-timeout",  # compile deadline exceeded (degraded/failed)
        "compile-failed",  # bouquet compilation errored (degraded/failed)
        "execute-failed",  # bouquet execution errored (degraded/failed)
        "outside-ess",  # the bouquet run ended unanswered (degraded)
        "budget-exhausted",  # per-request cost budget ran out
        "shed-quota",  # tenant token bucket empty (shed)
        "shed-queue-full",  # tenant queue at capacity (shed)
        "overload-degraded",  # admitted under pressure, budgets degraded
        "cached-only-miss",  # cached_only request, no artifact (degraded)
        "native-failed",  # the NAT fallback itself failed (failed)
        "server-closed",  # server is shutting down (failed)
    }
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BouquetError(f"serve request: {message}")


@dataclass(frozen=True)
class ServeRequest:
    """Everything a caller may say about one serving request.

    ``query`` is SQL text (the only wire-safe spelling) or a parsed
    :class:`~repro.query.query.Query` for in-process callers.  Knob
    fields reuse the canonical :class:`~repro.api.BouquetConfig`
    spelling — ``mode`` — and ``None`` means "server default".  Nothing
    on the wire selects how a miss is compiled.

    * ``tenant`` — admission-control identity (quotas, queues);
    * ``budget`` — per-request cost cap
      (:class:`~repro.api.BudgetCappedService`);
    * ``deadline`` — seconds the caller will wait for a compile before
      degrading to the NAT path (``0`` degrades immediately on a miss);
    * ``cached_only`` — never compile: answer from the artifact cache
      or degrade straight to NAT (the overload ladder sets this).
    """

    query: Union[str, Query]
    tenant: str = "default"
    request_id: Optional[str] = None
    budget: Optional[float] = None
    deadline: Optional[float] = None
    mode: Optional[str] = None
    cached_only: bool = False

    def validate(self) -> "ServeRequest":
        """Check every field; raises :class:`BouquetError` on the first
        violation.  Returns self for chaining."""
        _require(
            isinstance(self.query, (str, Query)) and bool(self.query),
            "query must be SQL text or a parsed Query",
        )
        _require(
            isinstance(self.tenant, str) and bool(self.tenant.strip()),
            "tenant must be a non-empty string",
        )
        _require(
            self.budget is None or self.budget > 0, "budget must be positive"
        )
        _require(
            self.deadline is None or self.deadline >= 0,
            "deadline must be non-negative",
        )
        _require(
            self.mode in (None, "basic", "optimized"),
            f"unknown runtime mode {self.mode!r}",
        )
        _require(isinstance(self.cached_only, bool), "cached_only must be a bool")
        return self

    def with_(self, **changes) -> "ServeRequest":
        """A copy with the given fields replaced (frozen-friendly)."""
        return replace(self, **changes)

    @property
    def sql(self) -> Optional[str]:
        return self.query if isinstance(self.query, str) else None

    # -- wire ----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        if not isinstance(self.query, str):
            raise BouquetError(
                "serve request: only SQL-text queries can cross the wire"
            )
        return {
            "format": REQUEST_FORMAT,
            "query": self.query,
            "tenant": self.tenant,
            "request_id": self.request_id,
            "budget": self.budget,
            "deadline": self.deadline,
            "mode": self.mode,
            "cached_only": self.cached_only,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "ServeRequest":
        if not isinstance(data, Mapping):
            raise BouquetError("serve request: payload must be a JSON object")
        payload = dict(data)
        fmt = payload.pop("format", REQUEST_FORMAT)
        if fmt != REQUEST_FORMAT:
            raise BouquetError(f"serve request: unknown format {fmt!r}")
        # Contour plans always run one at a time: a client that still
        # names the one schedule is answered, any other name is refused.
        crossing = payload.pop("crossing", None)
        _require(
            crossing in (None, "sequential"),
            f"unknown crossing strategy {crossing!r}",
        )
        known = {
            "query",
            "tenant",
            "request_id",
            "budget",
            "deadline",
            "mode",
            "cached_only",
        }
        unknown = set(payload) - known
        if unknown:
            raise BouquetError(
                f"serve request: unknown fields {sorted(unknown)}"
            )
        if "query" not in payload:
            raise BouquetError("serve request: missing required field 'query'")
        defaults = {"tenant": "default", "cached_only": False}
        for key, value in defaults.items():
            if payload.get(key) is None:
                payload[key] = value
        # The fields' values are checked once, where every request is:
        # at admission (:meth:`~repro.serve.front.ServeGateway.admit`).
        return ServeRequest(**payload)


@dataclass
class ServeResponse:
    """Outcome of one served request: a status/``error_code`` taxonomy,
    tenant identity, and timings around the run result.

    In-process responses carry the live
    :class:`~repro.core.runtime.BouquetRunResult` in ``result``;
    ``rows``/``total_cost`` are filled from it.  Wire responses carry
    only the scalar fields.  ``key`` is the artifact cache key
    (:class:`~repro.serve.fingerprint.ArtifactKey` in process, its
    digest string over the wire).
    """

    status: str
    cache: str = "none"
    query_name: str = ""
    tenant: str = "default"
    request_id: Optional[str] = None
    key: Optional[object] = None
    result: Optional[object] = None
    mso_bound: Optional[float] = None
    error: Optional[str] = None
    error_code: Optional[str] = None
    rows: Optional[int] = field(default=None)
    total_cost: Optional[float] = field(default=None)
    queue_seconds: float = 0.0
    service_seconds: float = 0.0

    def __post_init__(self):
        if self.status not in STATUSES:
            raise BouquetError(
                f"serve response: unknown status {self.status!r} "
                f"(expected one of {list(STATUSES)})"
            )
        if self.error_code is not None and self.error_code not in ERROR_CODES:
            raise BouquetError(
                f"serve response: unknown error code {self.error_code!r}"
            )
        if self.status != "ok" and self.error_code is None:
            raise BouquetError(
                f"serve response: status {self.status!r} requires an error_code"
            )
        if self.result is not None:
            if self.rows is None:
                self.rows = self.result.result_rows
            if self.total_cost is None:
                self.total_cost = self.result.total_cost

    # -- outcome predicates -------------------------------------------

    @property
    def ok(self) -> bool:
        """Answered under the MSO guarantee."""
        return self.status == "ok"

    @property
    def degraded(self) -> bool:
        return self.status == "degraded"

    @property
    def shed(self) -> bool:
        """Rejected by admission control before any work — not a failure."""
        return self.status == "shed"

    @property
    def failed(self) -> bool:
        """Attempted but produced no answer.  Distinct from ``shed``."""
        return self.status == "failed"

    @property
    def answered(self) -> bool:
        """Rows were delivered (with or without the MSO guarantee)."""
        return self.status in ("ok", "degraded")

    @property
    def latency_seconds(self) -> float:
        return self.queue_seconds + self.service_seconds

    # -- wire ----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        key = self.key
        if key is not None and not isinstance(key, str):
            key = key.digest
        return {
            "format": RESPONSE_FORMAT,
            "status": self.status,
            "cache": self.cache,
            "query_name": self.query_name,
            "tenant": self.tenant,
            "request_id": self.request_id,
            "key": key,
            "rows": self.rows,
            "total_cost": self.total_cost,
            "mso_bound": self.mso_bound,
            "error": self.error,
            "error_code": self.error_code,
            "queue_seconds": self.queue_seconds,
            "service_seconds": self.service_seconds,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "ServeResponse":
        if not isinstance(data, Mapping):
            raise BouquetError("serve response: payload must be a JSON object")
        payload = dict(data)
        fmt = payload.pop("format", RESPONSE_FORMAT)
        if fmt != RESPONSE_FORMAT:
            raise BouquetError(f"serve response: unknown format {fmt!r}")
        known = {
            "status",
            "cache",
            "query_name",
            "tenant",
            "request_id",
            "key",
            "rows",
            "total_cost",
            "mso_bound",
            "error",
            "error_code",
            "queue_seconds",
            "service_seconds",
        }
        unknown = set(payload) - known
        if unknown:
            raise BouquetError(
                f"serve response: unknown fields {sorted(unknown)}"
            )
        if "status" not in payload:
            raise BouquetError("serve response: missing required field 'status'")
        defaults = {
            "cache": "none",
            "query_name": "",
            "tenant": "default",
            "queue_seconds": 0.0,
            "service_seconds": 0.0,
        }
        for name, value in defaults.items():
            if payload.get(name) is None:
                payload[name] = value
        return ServeResponse(**payload)
