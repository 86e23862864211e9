"""BouquetServer: concurrent serving of cached compiled bouquets.

The paper's deployment story (§4.2) is "compile once, execute many" for
canned queries.  :class:`BouquetServer` makes that operational:

* every request is keyed by the content hash of (canonical query,
  statistics fingerprint, compile knobs) and answered from the artifact
  store when possible; a repeated SQL text is parsed and keyed once
  (counters ``serve.prepared.hits`` / ``serve.prepared.misses``) while
  the statistics stand;
* an exact-key miss then consults the **template tier**
  (:mod:`repro.template`): when another instance of the same query
  *template* — same shape, different constants — was compiled before,
  the artifact is **rebound** from it instead of recompiled (source
  ``"template"``, counters ``serve.template.*``), falling back to the
  full compile on any structural mismatch;
* concurrent misses on the *same* key are **single-flighted** — exactly
  one compile runs, the rest coalesce onto its future (counter
  ``serve.singleflight.coalesced``); concurrent misses on different
  instances of one template each rebind from the tier or compile on
  their own;
* misses compile on a bounded worker pool; a request whose compile
  exceeds its deadline **degrades** to the NAT path (one native
  optimizer call, one unbounded execution — an answer without the MSO
  guarantee) while the compile keeps running in the background so the
  artifact still lands in the cache for later requests;
* executions run with per-request budgets
  (:class:`repro.api.BudgetCappedService`) and report
  ``budget-exhausted`` instead of an MSO-guaranteed result when capped;
* :meth:`refresh_statistics` swaps the catalog's world view, carries
  over every memory-resident artifact whose compile inputs did not move
  (:mod:`repro.drift`), and invalidates the rest — the disk tier by
  name, opening no envelope.

The canonical calling convention is the typed envelope pair from
:mod:`repro.serve.envelope`::

    response = server.serve(ServeRequest(query=sql, budget=1e9))
    response.status, response.error_code, response.rows

``serve(sql)`` remains as sugar for ``serve(ServeRequest(query=sql))``.
Admission control, tenant quotas, and load shedding live one layer up, in
:class:`repro.serve.front.ServeGateway`.

The degradation ladder, top to bottom: memory hit → disk hit →
template rebind → single-flight compile → NAT fallback → failure.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Dict, Optional, Tuple, Union

from ..api import (
    BouquetConfig,
    Catalog,
    CompiledBouquet,
    DEFAULT_CONFIG,
    _compile_pipeline,
    execute as api_execute,
)
from ..catalog.statistics import DatabaseStatistics
from ..exceptions import BouquetError, BudgetExceeded, ReproError, TemplateError
from ..obs.tracer import NULL_TRACER, Tracer
from ..query.query import Query
from ..query.sql import parse_query
from ..robustness.nat import native_run
from ..template import TemplateSignature, TemplateStore, rebind_compiled, template_signature
from .cache import BouquetArtifactStore
from .envelope import ServeRequest, ServeResponse
from .fingerprint import ArtifactKey, artifact_key, statistics_fingerprint

__all__ = ["BouquetServer"]


class BouquetServer:
    """Serves many concurrent query requests from a bouquet artifact cache.

    Thread-safe: ``serve``/``compile`` may be called from any number of
    threads.  Compiles run on an internal bounded pool; executions run
    on the caller's thread (budget-capped per request).
    """

    def __init__(
        self,
        catalog: Catalog,
        *,
        config: BouquetConfig = DEFAULT_CONFIG,
        store: Optional[BouquetArtifactStore] = None,
        max_workers: int = 4,
        compile_timeout: Optional[float] = None,
        tracer: Optional[Tracer] = None,
    ):
        if max_workers < 1:
            raise BouquetError("server needs at least one compile worker")
        self.catalog = catalog
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.store = store if store is not None else BouquetArtifactStore()
        # The template tier (None when the config turns it off).
        self.templates = TemplateStore() if config.template else None
        self.compile_timeout = compile_timeout
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="bouquet-compile"
        )
        self._lock = threading.Lock()
        self._inflight: Dict[str, Future] = {}
        self._prepared: "OrderedDict[str, Tuple[Query, ArtifactKey]]" = OrderedDict()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "BouquetServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Compile path (cache + single-flight)
    # ------------------------------------------------------------------

    def _prepare(self, query: Union[str, Query]) -> Tuple[Query, ArtifactKey]:
        """The parsed query and artifact key of a request.  Per SQL text
        they are remembered (LRU, ``store.capacity`` texts) while the
        statistics digest they were keyed under is the live one; a parse
        failure raises and is never remembered."""
        statistics = self.catalog.statistics
        if not isinstance(query, str):
            return query, artifact_key(query, statistics, self.config)
        live = statistics_fingerprint(statistics)
        with self._lock:
            entry = self._prepared.get(query)
            if entry is not None and entry[1].statistics_digest == live:
                self._prepared.move_to_end(query)
                if self.tracer.enabled:
                    self.tracer.count("serve.prepared.hits")
                return entry
        parsed = parse_query(query, self.catalog.schema)
        entry = (parsed, artifact_key(parsed, statistics, self.config))
        with self._lock:
            self._prepared[query] = entry
            self._prepared.move_to_end(query)
            while len(self._prepared) > self.store.capacity:
                self._prepared.popitem(last=False)
        if self.tracer.enabled:
            self.tracer.count("serve.prepared.misses")
        return entry

    def _compile_and_store(
        self,
        key: ArtifactKey,
        query: Query,
        sql: Optional[str],
        sig: Optional[TemplateSignature],
    ) -> CompiledBouquet:
        """Pool task: run the compile pipeline and publish the artifact
        (to the exact store, and as the template ``sig``'s representative
        when the template tier is on)."""
        compiled = _compile_pipeline(
            query,
            self.catalog,
            self.config,
            None,
            None,
            self.tracer,
            None,
            sql,
            span_name="serve.compile",
        )
        self.store.put(key, compiled, tracer=self.tracer)
        if self.templates is not None:
            self.templates.put(
                sig, compiled, key.statistics_digest, key.config_digest
            )
            if self.tracer.enabled:
                self.tracer.count("serve.template.stores")
        return compiled

    def _rebind_from_template(
        self,
        key: ArtifactKey,
        query: Query,
        sql: Optional[str],
        sig: TemplateSignature,
    ) -> Optional[CompiledBouquet]:
        """Try to answer an exact-key miss from the template tier.

        On a template hit the cached representative is rebound onto this
        instance and the result published under the exact key (so the
        next identical request is a plain store hit).  Returns ``None``
        on a template miss or a rebind fallback — the caller proceeds to
        the full compile.
        """
        tracer = self.tracer
        entry = self.templates.lookup(
            sig, key.statistics_digest, key.config_digest
        )
        if entry is None:
            if tracer.enabled:
                tracer.count("serve.template.misses")
            return None
        if tracer.enabled:
            tracer.count("serve.template.hits")
        try:
            with tracer.span(
                "serve.template.rebind", query=query.name, template=sig.digest
            ):
                outcome = rebind_compiled(
                    entry.compiled,
                    entry.signature,
                    query,
                    self.catalog,
                    instance_sig=sig,
                    sql=sql,
                    tracer=tracer,
                )
        except TemplateError as exc:
            if tracer.enabled:
                tracer.count("serve.template.fallbacks")
                tracer.event(
                    "serve.template.fallback",
                    query=query.name,
                    reason=exc.reason,
                )
            return None
        if tracer.enabled:
            tracer.count("serve.template.rebinds")
        self.store.put(key, outcome.compiled, tracer=tracer)
        return outcome.compiled

    def compile(
        self,
        query: Union[str, Query],
        timeout: Optional[float] = None,
    ) -> Tuple[CompiledBouquet, str]:
        """Obtain the compiled bouquet for ``query``; returns
        ``(compiled, source)`` where source is ``memory``/``disk``/
        ``template``/``compiled``/``coalesced``.

        Raises :class:`FutureTimeoutError` when the (possibly coalesced)
        compile does not finish within ``timeout`` (default: the
        server's ``compile_timeout``); the compile itself keeps running
        and will still populate the store.
        """
        parsed, key = self._prepare(query)
        sql = query if isinstance(query, str) else None
        return self._compile_keyed(parsed, sql, key, timeout)

    def _compile_keyed(
        self,
        parsed: Query,
        sql: Optional[str],
        key: ArtifactKey,
        timeout: Optional[float],
    ) -> Tuple[CompiledBouquet, str]:
        """:meth:`compile` for a caller that already derived the key."""
        hit, tier = self.store.lookup(key, self.catalog, query=parsed, tracer=self.tracer)
        if hit is not None:
            return hit, tier
        sig = None
        if self.templates is not None:
            sig = template_signature(
                parsed, self.catalog.schema, self.catalog.statistics
            )
            compiled = self._rebind_from_template(key, parsed, sql, sig)
            if compiled is not None:
                return compiled, "template"
        timeout = timeout if timeout is not None else self.compile_timeout
        with self._lock:
            if self._closed:
                raise BouquetError("server is closed")
            future = self._inflight.get(key.digest)
            owner = future is None
            if owner:
                # A compile that finished between our store miss above
                # and this lock acquisition has already published its
                # artifact (_retire runs strictly after the store put),
                # so one more lookup here closes the race that would
                # duplicate the compile.  Fast batch compiles made that
                # window easy to hit: a whole compile can complete while
                # a peer thread is still between its miss and the lock.
                # Telemetry-silent: this is a race-closing recheck, not
                # a second user-visible cache lookup — the pre-lock miss
                # above already accounted this request.
                hit, tier = self.store.lookup(
                    key, self.catalog, query=parsed, tracer=NULL_TRACER
                )
                if hit is not None:
                    return hit, tier
                future = self._pool.submit(
                    self._compile_and_store, key, parsed, sql, sig
                )
                self._inflight[key.digest] = future
            elif self.tracer.enabled:
                self.tracer.count("serve.singleflight.coalesced")
        if owner:
            # Registered outside the lock: a compile that finishes (or
            # fails) instantly runs the callback inline on this thread,
            # and _retire needs the lock we would still be holding.
            future.add_done_callback(lambda _f, d=key.digest: self._retire(d))
        compiled = future.result(timeout=timeout)
        return compiled, ("compiled" if owner else "coalesced")

    def _retire(self, digest: str) -> None:
        with self._lock:
            self._inflight.pop(digest, None)

    # ------------------------------------------------------------------
    # Serve path (compile → execute, with degradation)
    # ------------------------------------------------------------------

    def serve(self, request: Union[ServeRequest, str, Query]) -> ServeResponse:
        """Answer one request end to end.

        The canonical calling convention is a
        :class:`~repro.serve.envelope.ServeRequest`; bare SQL text (or a
        parsed query) is accepted as sugar for ``ServeRequest(query=...)``.
        The request is validated here (an invalid one raises
        :class:`~repro.exceptions.BouquetError`).
        """
        if not isinstance(request, ServeRequest):
            request = ServeRequest(query=request)
        return self.serve_request(request.validate())

    def serve_request(self, request: ServeRequest) -> ServeResponse:
        """Answer one enveloped request end to end.

        The request must already be valid: :meth:`serve` and the
        gateway's admission (:meth:`~repro.serve.front.ServeGateway.admit`)
        validate it once, and this method trusts its caller.  Requires
        the catalog to carry a database (serving executes for real).
        Never raises for per-request problems — parse failures, compile
        deadlines, budget exhaustion, and execution errors are reported
        as typed statuses with stable ``error_code``\\ s, and the NAT
        fallback is attempted before giving up.
        """
        if self.catalog.database is None:
            raise BouquetError("serving requires a catalog with a database")
        tracer = self.tracer
        if tracer.enabled:
            tracer.count("serve.requests")
        started = time.perf_counter()

        def _respond(response: ServeResponse) -> ServeResponse:
            response.tenant = request.tenant
            response.request_id = request.request_id
            response.service_seconds = time.perf_counter() - started
            return response

        try:
            parsed, key = self._prepare(request.query)
        except ReproError as exc:
            if tracer.enabled:
                tracer.count("serve.parse_failures")
            return _respond(
                ServeResponse(
                    status="failed",
                    query_name=request.sql or "",
                    error=str(exc),
                    error_code="parse-error",
                )
            )
        compiled: Optional[CompiledBouquet] = None
        source = "none"
        error: Optional[str] = None
        error_code: Optional[str] = None
        if request.cached_only:
            # The overload ladder: answer from cache or fall straight
            # through to NAT — never start (or wait on) a compile.
            hit, tier = self.store.lookup(
                key, self.catalog, query=parsed, tracer=tracer
            )
            if hit is not None:
                compiled, source = hit, tier
            else:
                error = "no cached artifact (cached-only request)"
                error_code = "cached-only-miss"
                if tracer.enabled:
                    tracer.count("serve.cached_only_misses")
        else:
            try:
                compiled, source = self._compile_keyed(
                    parsed, None, key, request.deadline
                )
            except FutureTimeoutError:
                error = "compile deadline exceeded"
                error_code = "compile-timeout"
                if tracer.enabled:
                    tracer.count("serve.compile_timeouts")
            except ReproError as exc:
                error = str(exc)
                error_code = "server-closed" if self._closed else "compile-failed"
                if tracer.enabled:
                    tracer.count("serve.compile_failures")

        if compiled is not None:
            try:
                result = api_execute(
                    compiled,
                    self.catalog.database,
                    budget=request.budget,
                    mode=request.mode,
                    tracer=tracer,
                    span_name="serve.execute",
                )
            except BudgetExceeded as exc:
                if tracer.enabled:
                    tracer.count("serve.budget_exhausted")
                return _respond(
                    ServeResponse(
                        status="budget-exhausted",
                        cache=source,
                        query_name=parsed.name,
                        key=key,
                        mso_bound=compiled.mso_bound,
                        error=str(exc),
                        error_code="budget-exhausted",
                    )
                )
            except ReproError as exc:
                # Bouquet execution failed outright; fall through to NAT.
                error = str(exc)
                error_code = "execute-failed"
                if tracer.enabled:
                    tracer.count("serve.execute_failures")
            else:
                if result.completed:
                    if tracer.enabled:
                        tracer.count("serve.served_ok")
                    return _respond(
                        ServeResponse(
                            status="ok",
                            cache=source,
                            query_name=parsed.name,
                            key=key,
                            result=result,
                            mso_bound=compiled.mso_bound,
                        )
                    )
                # No contour's budget answered it: the query lies outside
                # the ESS the guarantee covers, so NAT answers it.
                error = "the bouquet run ended unanswered: the query lies outside its ESS"
                error_code = "outside-ess"
                if tracer.enabled:
                    tracer.count("serve.outside_ess")

        # Degradation: no compiled bouquet in time, or no answer from
        # it — answer natively.
        try:
            optimizer = self.catalog.optimizer(self.config, tracer=tracer)
            result = native_run(optimizer, parsed, self.catalog.database, tracer)
            if tracer.enabled:
                tracer.count("serve.degraded")
            return _respond(
                ServeResponse(
                    status="degraded",
                    cache=source,
                    query_name=parsed.name,
                    key=key,
                    result=result,
                    error=error,
                    error_code=error_code if error_code else "compile-failed",
                )
            )
        except ReproError as exc:
            if tracer.enabled:
                tracer.count("serve.failed")
            return _respond(
                ServeResponse(
                    status="failed",
                    cache=source,
                    query_name=parsed.name,
                    key=key,
                    error=f"{error}; native fallback failed: {exc}"
                    if error
                    else str(exc),
                    error_code="native-failed",
                )
            )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def refresh_statistics(self, statistics: Optional[DatabaseStatistics]) -> int:
        """Swap in a new statistics world view.

        Every memory-resident artifact keyed to the old fingerprint is
        first offered to the carry-over (:func:`repro.drift.refresh.patch_compiled`):
        an artifact whose compile-visible inputs are unchanged is re-keyed
        under the new fingerprint with no optimizer work (counter
        ``serve.cache.patched``).  Whatever the refresh moved (the error
        dimensions, the grid or a base selectivity) is swept by the
        invalidation that follows, as is every disk-only artifact of the
        old world; each recompiles or rebinds on its next request.
        Returns the number of entries dropped.
        """
        old_statistics = self.catalog.statistics
        self.catalog.statistics = statistics
        with self._lock:
            self._prepared.clear()
        fingerprint = statistics_fingerprint(statistics)
        if fingerprint != statistics_fingerprint(old_statistics):
            self._patch_artifacts(fingerprint)
        removed = self.store.invalidate_statistics(fingerprint, tracer=self.tracer)
        if self.templates is not None:
            # The template tier keys on the statistics digest too, so
            # entries built under the old world view are unreachable —
            # sweep them (the patch pass above already re-registered the
            # artifacts it managed to carry over under the new digest).
            dropped = self.templates.invalidate_statistics(fingerprint)
            if dropped and self.tracer.enabled:
                self.tracer.count("serve.template.invalidated", dropped)
        if self.tracer.enabled:
            self.tracer.count("serve.statistics_refreshes")
        return removed

    def _patch_artifacts(self, fingerprint: str) -> int:
        """Re-key every stale memory-resident artifact that carries over
        under ``fingerprint``."""
        from ..drift.refresh import patch_compiled

        patched = 0
        with self.tracer.span("serve.patch_artifacts"):
            for _old_key, compiled in self.store.stale_entries(fingerprint):
                try:
                    carried = patch_compiled(compiled, self.catalog, tracer=self.tracer)
                except ReproError:
                    # Not carried over — the invalidation sweep drops it.
                    continue
                new_key = artifact_key(
                    carried.query, self.catalog.statistics, carried.config
                )
                self.store.put(new_key, carried, tracer=self.tracer)
                if self.templates is not None:
                    # A patched artifact is a valid representative of its
                    # template under the *new* statistics — re-register it
                    # so the template tier survives the refresh warm.
                    sig = template_signature(
                        carried.query,
                        self.catalog.schema,
                        self.catalog.statistics,
                    )
                    self.templates.put(
                        sig,
                        carried,
                        new_key.statistics_digest,
                        new_key.config_digest,
                    )
                patched += 1
                if self.tracer.enabled:
                    self.tracer.count("serve.cache.patched")
        return patched

    def stats(self) -> Dict[str, Dict]:
        """Point-in-time serving statistics (counters + store occupancy)."""
        snapshot = self.tracer.snapshot() if self.tracer.enabled else {"counters": {}}
        with self._lock:
            inflight = len(self._inflight)
        stats = {
            "counters": {
                name: value
                for name, value in sorted(snapshot["counters"].items())
                if name.startswith(("serve.", "optimizer."))
            },
            "store": self.store.snapshot(),
            "inflight": inflight,
        }
        if self.templates is not None:
            stats["templates"] = self.templates.snapshot()
        return stats
