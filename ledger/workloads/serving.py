"""What the two serving workloads share: the open-quota gateway,
the layer replay of one request and the HTTP-overhead probe.

The replay answers a request the way ``BouquetServer.serve_request``
does, but one public call at a time with a ledger span around each, so
the traced run can attribute a request's time to parse, fingerprint,
cache tiers, template tier, compile, run-time driver, executor and
envelope.  It shares the server's store, template store and catalog, so
cache state evolves exactly as on the real path.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from typing import Dict, List, Sequence

from repro import BouquetRunner, ExecutionEngine, RealExecutionService
from repro.api import compile_bouquet
from repro.core.runtime import ExecutionService
from repro.exceptions import TemplateError
from repro.query.sql import parse_query
from repro.serve import (
    AsyncServeClient,
    BouquetFrontEnd,
    BouquetServer,
    ServeGateway,
    ServeRequest,
    ServeResponse,
    TenantQuota,
    artifact_key,
)
from repro.template import rebind_compiled, template_signature

from ..spans import SpanRecorder

#: Ops of each op list the layer replay drives.
REPLAY_OPS = 200


#: One closed-loop client sends 250-800 requests/s, above the default
#: tenant quota (200/s); admission stays on the path but never sheds.
OPEN_QUOTA = TenantQuota(rate=1e6, burst=1e6)


def gateway_for(server: BouquetServer) -> ServeGateway:
    return ServeGateway(server, default_quota=OPEN_QUOTA)


class TimedService(ExecutionService):
    """Timing proxy around the real execution service: every partial or
    full plan execution becomes an ``executor.run`` span, which separates
    executor time from the run-time driver's own."""

    def __init__(self, inner: RealExecutionService, recorder: SpanRecorder):
        self.inner = inner
        self.recorder = recorder

    def run_full(self, plan_id, budget, cancel=None):
        with self.recorder.span("executor.run"):
            return self.inner.run_full(plan_id, budget, cancel=cancel)

    def run_spilled(self, plan_id, budget, unlearned_pids, cancel=None):
        with self.recorder.span("executor.run"):
            return self.inner.run_spilled(
                plan_id, budget, unlearned_pids, cancel=cancel
            )


class ServeReplay:
    """Serves requests against a server's state through public calls."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.results: List[object] = []
        self.executor_rows = 0
        self.template_fallbacks = 0

    def bind(self, server: BouquetServer) -> None:
        """Serve from ``server``'s catalog, store and template store."""
        self.server = server
        self.gateway = gateway_for(server)

    def serve(self, sql: str) -> ServeResponse:
        rec, server, gateway = self.recorder, self.server, self.gateway
        catalog, config = server.catalog, server.config
        with rec.span("serve.front.admit"):
            ticket, early = gateway.admit(ServeRequest(query=sql))
            if early is not None:
                return early
            ticket.started_at = gateway.runtime.now()
        with rec.span("query.parse"):
            parsed = parse_query(sql, catalog.schema)
        # The server derives the key twice per request (serve_request,
        # then compile), so the layer's cost per request is two calls.
        for _ in range(2):
            with rec.span("serve.fingerprint.key"):
                key = artifact_key(parsed, catalog.statistics, config)
        with rec.span("serve.cache.lookup") as scope:
            compiled, source = server.store.lookup(key, catalog, query=parsed)
        rec.spans[scope.index]["name"] = f"serve.cache.lookup_{source or 'miss'}"
        if compiled is None:
            compiled, source = self._miss(parsed, key)
        with rec.span("core.driver"):
            engine = ExecutionEngine(
                catalog.database, cost_model=compiled.config.cost_model_object
            )
            inner = RealExecutionService(compiled.bouquet, engine)
            result = BouquetRunner(
                compiled.bouquet,
                TimedService(inner, rec),
                mode=config.mode,
                crossing=config.crossing,
                equivalence_threshold=config.equivalence_threshold,
                model_error_delta=config.model_error_delta,
            ).run()
        self.results.append(result)
        self.executor_rows += sum(rows for _, _, rows in inner.history)
        with rec.span("serve.envelope.build"):
            response = ServeResponse(
                status="ok",
                cache=source,
                query_name=parsed.name,
                key=key,
                result=result,
                mso_bound=compiled.mso_bound,
            )
        with rec.span("serve.front.admit"):
            gateway.finish(ticket, response)
        with rec.span("serve.envelope.codec"):
            ServeResponse.from_dict(json.loads(json.dumps(response.to_dict())))
        return response

    def _miss(self, parsed, key):
        """Template tier, then a full compile: what ``compile`` does."""
        rec, server = self.recorder, self.server
        catalog = server.catalog
        with rec.span("template.signature"):
            sig = template_signature(parsed, catalog.schema, catalog.statistics)
        with rec.span("template.store"):
            entry = server.templates.lookup(
                sig, key.statistics_digest, key.config_digest
            )
        compiled = None
        if entry is not None:
            try:
                with rec.span("template.rebind"):
                    compiled = rebind_compiled(
                        entry.compiled,
                        entry.signature,
                        parsed,
                        catalog,
                        instance_sig=sig,
                    ).compiled
            except TemplateError:
                self.template_fallbacks += 1
        source = "template"
        if compiled is None:
            source = "compiled"
            # Like the server, from the parsed query: the artifact then
            # carries no SQL text, which is why a statistics refresh can
            # patch memory-tier entries but not disk-only envelopes.
            with rec.span("api.compile"):
                compiled = compile_bouquet(parsed, catalog, config=server.config)
            with rec.span("template.store"):
                server.templates.put(
                    sig, compiled, key.statistics_digest, key.config_digest
                )
        with rec.span("serve.cache.put"):
            server.store.put(key, compiled)
        return compiled, source

    # -- per-layer metrics every serving workload reports ----------------

    def metrics(self) -> Dict[str, float]:
        rec = self.recorder
        runs = self.results
        executor_seconds = sum(
            span["end"] - span["start"]
            for span in rec.spans
            if span["name"] == "executor.run"
        )
        charged = sum(r.total_cost for r in runs)
        wasted = sum(
            e.cost_spent for r in runs for e in r.executions if not e.completed
        )
        per_op = max(len(runs), 1)
        return {
            "query.parse_ms": rec.layer_ms("query.parse"),
            "serve.fingerprint.key_ms": rec.layer_ms("serve.fingerprint.key"),
            "serve.front.admit_ms": rec.layer_ms("serve.front.admit"),
            "serve.cache.lookup_mem_ms": rec.layer_ms("serve.cache.lookup_memory"),
            "core.driver_ms": rec.layer_ms("core.driver"),
            "core.partial_executions_per_op": sum(
                r.partial_executions for r in runs
            )
            / per_op,
            "core.contours_climbed_per_op": sum(
                len(r.executions_per_contour()) for r in runs
            )
            / per_op,
            "core.wasted_cost_ratio": wasted / charged if charged else 0.0,
            "executor.run_ms": rec.layer_ms("executor.run"),
            "executor.calls_per_op": rec.count("executor.run") / per_op,
            "executor.rows_per_s": self.executor_rows / executor_seconds
            if executor_seconds
            else 0.0,
        }


#: Spans off the in-process request path (the envelope codec only runs
#: over HTTP), left out of the coverage sum.
OFF_PATH = ("serve.envelope.codec",)


def http_overhead_ms(gateway: ServeGateway, queries: Sequence[str]) -> float:
    """Median loopback round trip minus the server-side service and queue
    seconds, over ``queries`` sent one at a time on one connection."""

    async def drive() -> List[float]:
        overheads = []
        front = BouquetFrontEnd(gateway)
        try:
            host, port = await front.start()
            async with AsyncServeClient(host, port) as client:
                for sql in queries:
                    started = time.perf_counter()
                    response = await client.serve(ServeRequest(query=sql))
                    elapsed = time.perf_counter() - started
                    overheads.append(
                        elapsed - response.service_seconds - response.queue_seconds
                    )
        finally:
            await front.stop()
            front.runtime.shutdown()
        return overheads

    return 1000.0 * statistics.median(asyncio.run(drive()))
