"""serve_hot — the paper's section 4.2 deployment: canned queries, compiled
once, executed many times.

25 distinct queries (the 3 canned texts + 22 generated), fewer than the
artifact store's memory capacity (32), so every timed request is an
exact memory hit and the time is the Figure 13 driver plus the executor.
Each query is requested the same number of times per pass; the seed only
shuffles the order, so the work per pass and the multiset of slot
latencies do not depend on it.  With 25 equally frequent queries the
50th and 90th percentiles fall in the middle of the 13th and 23rd
query's slots rather than on a boundary between two queries.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.api import BouquetConfig
from repro.query.sql import parse_query
from repro.serve import BouquetServer, ServeGateway, ServeRequest

from .. import env
from ..spans import REPLAY_ROUNDS, SpanRecorder, new_tracer
from . import serving
from .base import Workload

GENERATED_QUERIES = 22
DRAWS_PER_QUERY = 6
HTTP_REQUESTS = 150


class ServeHot(Workload):
    name = "serve_hot"

    def build_ops(self) -> None:
        self.catalog = env.build_catalog("tpch")
        pool = env.CANNED_WORKLOAD + [
            generated.sql
            for generated in env.serving_pool(self.catalog, GENERATED_QUERIES)
        ]
        self.pool = pool
        draws = [q for q in range(len(pool)) for _ in range(self.scaled(DRAWS_PER_QUERY))]
        self.rng().shuffle(draws)
        self.ops = [{"kind": "serve", "sql": pool[q]} for q in draws]

    def setup(self) -> None:
        self.build_ops()
        self.rows_seen: Dict[str, Set[object]] = {sql: set() for sql in self.pool}
        self.gateways: Dict[bool, ServeGateway] = {}
        self.gateway = self._gateway(traced=False)

    def _gateway(self, traced: bool) -> ServeGateway:
        """The (lazily built, pre-warmed) gateway, with or without the
        program's tracer."""
        gateway = self.gateways.get(traced)
        if gateway is None:
            tracer = new_tracer() if traced else None
            server = BouquetServer(self.catalog, config=BouquetConfig(), tracer=tracer)
            gateway = self.gateways[traced] = serving.gateway_for(server)
            # Cold touches: compile every distinct query once.
            for sql in self.pool:
                response = gateway.handle(ServeRequest(query=sql))
                if not (response.ok and response.cache == "compiled"):
                    raise RuntimeError(f"cold touch failed: {response.error}")
        return gateway

    def begin_pass(self, traced: bool = False) -> None:
        self.gateway = self._gateway(traced)

    def run_op(self, slot: int):
        return self.gateway.handle(ServeRequest(query=self.ops[slot]["sql"]))

    def check_op(self, slot: int, response) -> bool:
        self.rows_seen[self.ops[slot]["sql"]].add(response.rows)
        return response.status == "ok" and response.cache == "memory"

    def verify(self) -> List[str]:
        failures = []
        for sql, seen in self.rows_seen.items():
            want = env.expected_rows(
                self.catalog, parse_query(sql, self.catalog.schema)
            )
            if seen != {want}:
                failures.append(f"rows {sorted(map(str, seen))} != {want}: {sql}")
        return failures

    def close(self) -> None:
        for gateway in self.gateways.values():
            gateway.backend.close()

    # -- traced run -------------------------------------------------------

    def trace(self, recorder: SpanRecorder) -> Dict[str, float]:
        gateway = self.gateways[False]
        replay = serving.ServeReplay(recorder)
        replay.bind(gateway.backend)
        for recorder.round in range(REPLAY_ROUNDS):
            for recorder.op, op in enumerate(self.ops[: serving.REPLAY_OPS]):
                request = ServeRequest(query=op["sql"])
                recorder.end_to_end(lambda: gateway.handle(request))
                replay.serve(op["sql"])
        metrics = replay.metrics()
        metrics["serve.envelope.codec_ms"] = recorder.layer_ms("serve.envelope.codec")
        metrics["harness.coverage"] = recorder.coverage(serving.OFF_PATH)
        requests = [op["sql"] for op in self.ops[: self.scaled(HTTP_REQUESTS)]]
        metrics["serve.http.overhead_ms"] = serving.http_overhead_ms(
            self.gateway, requests
        )
        return metrics
