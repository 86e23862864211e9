"""serve_churn — the serving layers with writes beside reads.

Instances of a few query templates (same shape, different constants),
Pareto-skewed over the templates, against a **fresh** server and disk
store per pass whose memory tier (16) is far smaller than the working
set, with a statistics refresh issued as an op at fixed positions.  The
mix is cold compiles, template rebinds, memory hits, disk-envelope
loads, puts, evictions and drift patches — where ``template``, ``drift``
and ``serve.cache`` show, and where an executor gain moves only the
execute share.

The sequence of requests is fixed (drawn once from a constant stream);
the seed shuffles it only *locally*, inside consecutive blocks of
``SHUFFLE_BLOCK`` requests.  Which instance of a template arrives first
(and so compiles rather than rebinds) and what the LRU holds depend on
the order, so a full shuffle moves the tier mix — and with it the work
of a pass — by several percent from seed to seed; a local one changes
the arrival order without changing the mix by more than a request or two.
"""

from __future__ import annotations

import os
import random
import shutil
from typing import Dict, List

from repro.api import BouquetConfig, Catalog
from repro.drift import perturb_statistics
from repro.query.sql import parse_query
from repro.serve import BouquetArtifactStore, BouquetServer, ServeRequest
from repro.wlgen import QueryGenerator

from .. import env
from ..spans import REPLAY_ROUNDS, SpanRecorder, new_tracer
from . import serving
from .base import Workload

TEMPLATES = 10
BINDINGS = 6
SHUFFLE_BLOCK = 8
REQUESTS = 165
REFRESH_EVERY = 55
MEMORY_CAPACITY = 16
PARETO_SHAPE = 1.2
#: Distinct queries whose row counts are checked against the reference
#: evaluator (it is a Python loop over every row, so not all of them).
#: The first ones in text order, not in arrival order: which queries the
#: evaluator runs decides the process's peak RSS, and the seed must not.
VERIFIED_QUERIES = 25

#: The drift each refresh op injects, cumulatively, in op order.
DRIFTS = [
    ("orders", "o_totalprice", 1.05),
    ("part", "p_retailprice", 1.10),
    ("lineitem", "l_quantity", 1.08),
    ("customer", "c_acctbal", 1.05),
]

SERVED_TIERS = ("compiled", "template", "memory", "disk")


def instance_pool(catalog: Catalog) -> List[List[str]]:
    """``TEMPLATES`` x ``BINDINGS`` SQL texts that pass the hygiene rule."""
    generator = QueryGenerator(catalog.schema, catalog.database)
    optimizer = catalog.optimizer()
    pool: List[List[str]] = []
    index = 0
    while len(pool) < TEMPLATES:
        instances: List[str] = []
        for binding in range(2 * BINDINGS):
            generated = generator.instantiate(env.POOL_SEED, index, binding)
            cost = env.optimal_cost(catalog, optimizer, generated.query)
            if cost <= env.SERVE_COST_CAP:
                instances.append(generated.sql)
            elif binding == 0:
                break  # the exemplar itself is too heavy: skip the template
            if len(instances) == BINDINGS:
                pool.append(instances)
                break
        index += 1
    return pool


class ServeChurn(Workload):
    name = "serve_churn"

    def build_ops(self) -> None:
        self.base = env.build_catalog("tpch")
        pool = instance_pool(self.base)
        fixed = random.Random("ledger:serve_churn:requests")
        weights = [1.0 / (k + 1) ** PARETO_SHAPE for k in range(TEMPLATES)]
        requests = [
            pool[fixed.choices(range(TEMPLATES), weights)[0]][fixed.randrange(BINDINGS)]
            for _ in range(self.scaled(REQUESTS))
        ]
        rng = self.rng()
        for start in range(0, len(requests), SHUFFLE_BLOCK):
            block = requests[start : start + SHUFFLE_BLOCK]
            rng.shuffle(block)
            requests[start : start + SHUFFLE_BLOCK] = block
        every = self.scaled(REFRESH_EVERY)
        self.ops = []
        for position, sql in enumerate(requests):
            if position and position % every == 0:
                table, column, scale = DRIFTS[(position // every - 1) % len(DRIFTS)]
                self.ops.append(
                    {"kind": "refresh", "table": table, "column": column, "scale": scale}
                )
            self.ops.append({"kind": "serve", "sql": sql})

    def setup(self) -> None:
        self.build_ops()
        self.root = os.path.join(self.scratch, f"churn-{os.getpid()}")
        self.server: BouquetServer = None
        self.tiers: List[str] = []
        self.tier_log: List[List[str]] = []
        self.rows_seen: Dict[str, set] = {}
        self.traced_counters: Dict[str, float] = {}
        self.traced_spans: List[dict] = []

    # -- one pass ----------------------------------------------------------

    def _fresh_server(self, subdir: str, tracer=None) -> BouquetServer:
        root = os.path.join(self.root, subdir)
        shutil.rmtree(root, ignore_errors=True)
        catalog = Catalog(self.base.schema, self.base.statistics, self.base.database)
        store = BouquetArtifactStore(root=root, capacity=MEMORY_CAPACITY)
        return BouquetServer(catalog, config=BouquetConfig(), store=store, tracer=tracer)

    def begin_pass(self, traced: bool = False) -> None:
        tracer = new_tracer() if traced else None
        self.server = self._fresh_server("pass", tracer)
        self.gateway = serving.gateway_for(self.server)
        self.tiers = []

    def run_op(self, slot: int):
        return self.apply(self.server, self.gateway.handle, self.ops[slot])

    @staticmethod
    def apply(server: BouquetServer, serve, op):
        """Run one op: ``serve(request)`` or a statistics refresh."""
        if op["kind"] == "refresh":
            drifted = perturb_statistics(
                server.catalog.statistics, op["table"], op["column"], scale=op["scale"]
            )
            return server.refresh_statistics(drifted)
        return serve(ServeRequest(query=op["sql"]))

    def check_op(self, slot: int, result) -> bool:
        op = self.ops[slot]
        if op["kind"] == "refresh":
            self.tiers.append("refresh")
            return isinstance(result, int)
        self.tiers.append(result.cache)
        self.rows_seen.setdefault(op["sql"], set()).add(result.rows)
        return result.status == "ok" and result.cache in SERVED_TIERS

    def end_pass(self) -> None:
        tracer = self.server.tracer
        if tracer.enabled:
            self.traced_counters = tracer.snapshot()["counters"]
            self.traced_spans = tracer.sink.spans("drift.refresh")
        self.server.close()
        self.tier_log.append(self.tiers)

    def verify(self) -> List[str]:
        failures = []
        for number, tiers in enumerate(self.tier_log[1:], start=1):
            if tiers != self.tier_log[0]:
                failures.append(f"pass {number}: cache tiers differ from pass 0")
        schema = self.base.schema
        for sql in sorted(self.rows_seen)[:VERIFIED_QUERIES]:
            want = env.expected_rows(self.base, parse_query(sql, schema))
            if self.rows_seen[sql] != {want}:
                failures.append(
                    f"rows {sorted(map(str, self.rows_seen[sql]))} != {want}: {sql}"
                )
        return failures

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    # -- traced run --------------------------------------------------------

    def trace(self, recorder: SpanRecorder) -> Dict[str, float]:
        replay = serving.ServeReplay(recorder)
        for recorder.round in range(REPLAY_ROUNDS):
            # Two fresh servers in lockstep: each op goes through the
            # real path on one (its end-to-end reference) and through
            # the layered replay on the other.
            direct = self._fresh_server("direct")
            handle = serving.gateway_for(direct).handle
            server = self._fresh_server("replay")
            replay.bind(server)
            try:
                for recorder.op, op in enumerate(self.ops[: serving.REPLAY_OPS]):
                    recorder.end_to_end(lambda: self.apply(direct, handle, op))
                    if op["kind"] == "refresh":
                        with recorder.span("drift.refresh"):
                            self.apply(server, None, op)
                    else:
                        replay.serve(op["sql"])
            finally:
                direct.close()
                server.close()
        metrics = replay.metrics()
        for name, layer in (
            ("serve.cache.lookup_disk_ms", "serve.cache.lookup_disk"),
            ("serve.cache.put_ms", "serve.cache.put"),
            ("template.signature_ms", "template.signature"),
            ("template.rebind_ms", "template.rebind"),
            ("api.compile_ms", "api.compile"),
            ("drift.refresh_ms", "drift.refresh"),
        ):
            metrics[name] = recorder.layer_ms(layer)
        metrics["harness.coverage"] = recorder.coverage(serving.OFF_PATH)
        metrics.update(self._counts())
        return metrics

    def _counts(self) -> Dict[str, float]:
        """Ratios and counts from the program's tracer over the last
        traced pass (the whole op list, not just the replayed slice)."""
        c = self.traced_counters

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        memory = c.get("serve.cache.hit_memory", 0)
        disk = c.get("serve.cache.hit_disk", 0)
        lookups = memory + disk + c.get("serve.cache.miss", 0)
        hits = c.get("serve.template.hits", 0)
        delta = [s["attrs"] for s in self.traced_spans if "total" in s["attrs"]]
        return {
            "serve.cache.hit_ratio_mem": ratio(memory, lookups),
            "serve.cache.hit_ratio_disk": ratio(disk, lookups),
            "serve.cache.evictions": c.get("serve.cache.evict", 0),
            "serve.cache.purged": c.get("serve.cache.purged", 0),
            "template.hit_ratio": ratio(hits, hits + c.get("serve.template.misses", 0)),
            "template.fallbacks": c.get("serve.template.fallbacks", 0),
            "drift.patched_ratio": ratio(
                c.get("serve.cache.patched", 0), c.get("serve.cache.invalidated", 0)
            ),
            "drift.replanned_fraction": ratio(
                sum(a["planned"] for a in delta), sum(a["total"] for a in delta)
            ),
        }
