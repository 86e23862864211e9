"""compile_cold — the paper's section 6.1 compile overhead, uncached.

``compile_bouquet`` with no cache for eight of the ten Table 2 queries
(hand-picked dimensions, TPC-H and TPC-DS) plus generated queries
dimensioned by ``dimension_query``, against fresh catalogs and fresh
query objects per pass, so no optimizer, registry or cost cache survives
a pass.  All time is optimizer / batchopt / ess / core.contours; the
executor, serve and par are never entered, so a gain there must read "no
change" here.

The Table 2 queries break the 2%-of-a-pass hygiene rule on purpose:
``4D_H_Q8`` alone is about a third of a pass (it is the paper's worst
case and stays).  ``4D_DS_Q91`` and ``5D_DS_Q19``, the next two, are left
out: with them a pass takes 1.9 s instead of 1.3 s, a run fits a third
fewer passes, and on this noisy box the number of samples per slot is
what the repeatability of the run hangs on; ``5D_H_Q7`` and
``4D_DS_Q26`` keep a five-dimensional and a TPC-DS four-dimensional
space in the list.  ``ops_per_s`` carries the heavy queries and
``op_p50_ms`` the small ones.  The seed shuffles the order of the ops.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from typing import Dict, List

from repro import validate_bouquet
from repro.api import (
    EXHAUSTIVE_LIMIT,
    BouquetConfig,
    Catalog,
    compile_bouquet,
)
from repro.core import identify_bouquet
from repro.ess import PlanDiagram, SelectivitySpace, anorexic_reduce, coarse_subgrid
from repro.optimizer import actual_selectivities
from repro.query import render_sql
from repro.query.workload import TABLE2_NAMES, full_workload
from repro.wlgen import QueryGenerator, dimension_query

from .. import env
from ..spans import REPLAY_ROUNDS, SpanRecorder, new_tracer
from .base import Workload

GENERATED_PER_SCHEMA = 15
TABLE2 = [n for n in TABLE2_NAMES if n not in ("4D_DS_Q91", "5D_DS_Q19")]
CONFIG = BouquetConfig()


def artifact_digest(compiled) -> str:
    blob = json.dumps(compiled.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class CompileCold(Workload):
    name = "compile_cold"

    def build_ops(self) -> None:
        self.base = {name: env.build_catalog(name) for name in ("tpch", "tpcds")}
        table2 = full_workload(self.base["tpch"].schema, self.base["tpcds"].schema)
        ops = [
            {
                "kind": "compile",
                "source": "table2",
                "benchmark": "tpcds" if "DS" in name else "tpch",
                "name": name,
                "sql": render_sql(table2[name].query),
                "dimensions": list(table2[name].dim_pids),
            }
            for name in TABLE2[: self.scaled(len(TABLE2))]
        ]
        #: Per generated op: the error dimensions and base assignment
        #: ``dimension_query`` chose (plain data, reused by every pass).
        self.dimensioned: Dict[str, object] = {}
        for benchmark, catalog in self.base.items():
            generator = QueryGenerator(catalog.schema, catalog.database)
            optimizer = catalog.optimizer()
            index = 0
            wanted = self.scaled(GENERATED_PER_SCHEMA)
            while wanted:
                generated = generator.generate(env.POOL_SEED, index)
                index += 1
                result = dimension_query(optimizer, generated.query, catalog.database)
                if not result.dimensions:
                    continue  # nothing error-prone: not a bouquet query
                name = f"{benchmark}:{generated.name}"
                self.dimensioned[name] = result
                ops.append(
                    {
                        "kind": "compile",
                        "source": "wlgen",
                        "benchmark": benchmark,
                        "name": name,
                        "index": generated.index,
                        "sql": generated.sql,
                        "dimensions": result.pids,
                    }
                )
                wanted -= 1
        self.rng().shuffle(ops)
        self.ops = ops

    def setup(self) -> None:
        self.build_ops()
        self.digests: List[List[str]] = []
        self.tracer = None
        self.traced_counts: Dict[str, float] = {}

    # -- one pass ----------------------------------------------------------

    def _fresh_inputs(self):
        """Fresh catalogs and query objects; per op ``(query, catalog,
        dimensions, base_assignment)``."""
        catalogs = {
            name: Catalog(base.schema, base.statistics, base.database)
            for name, base in self.base.items()
        }
        table2 = full_workload(catalogs["tpch"].schema, catalogs["tpcds"].schema)
        generators = {
            name: QueryGenerator(catalog.schema, catalog.database)
            for name, catalog in catalogs.items()
        }
        inputs = []
        for op in self.ops:
            catalog = catalogs[op["benchmark"]]
            if op["source"] == "table2":
                entry = table2[op["name"]]
                inputs.append((entry.query, catalog, entry.dimensions(), None))
            else:
                chosen = self.dimensioned[op["name"]]
                query = generators[op["benchmark"]].generate(env.POOL_SEED, op["index"]).query
                inputs.append((query, catalog, chosen.dimensions, chosen.base_assignment))
        return inputs

    def begin_pass(self, traced: bool = False) -> None:
        self.inputs = self._fresh_inputs()
        self.tracer = new_tracer() if traced else None
        self.artifacts = [None] * len(self.ops)

    def run_op(self, slot: int):
        return self._compile(self.inputs[slot], self.tracer)

    @staticmethod
    def _compile(inputs, tracer=None):
        query, catalog, dimensions, base = inputs
        return compile_bouquet(
            query,
            catalog,
            config=CONFIG,
            dimensions=dimensions,
            base_assignment=base,
            tracer=tracer,
        )

    def check_op(self, slot: int, compiled) -> bool:
        self.artifacts[slot] = compiled
        return compiled.bouquet.cardinality >= 1

    def end_pass(self) -> None:
        self.digests.append(
            [artifact_digest(c) if c is not None else "" for c in self.artifacts]
        )
        if self.tracer is not None:
            snapshot = self.tracer.snapshot()
            counters = snapshot["counters"]
            batch = snapshot["timings"].get("optimizer.batch_latency", {})
            locations = counters.get("optimizer.batched_locations", 0)
            self.traced_counts = {
                "optimizer.locations_planned": locations
                + counters.get("optimizer.calls", 0),
                "optimizer.batch_calls": counters.get("optimizer.batch_calls", 0),
                "batchopt.locations_per_s": locations / batch["total"]
                if batch.get("total")
                else 0.0,
            }

    def verify(self) -> List[str]:
        failures = []
        for number, digests in enumerate(self.digests[1:], start=1):
            for op, first, other in zip(self.ops, self.digests[0], digests):
                if first != other:
                    failures.append(f"pass {number}: artifact of {op['name']} differs")
        for op, compiled in zip(self.ops, self.artifacts):
            report = validate_bouquet(compiled.bouquet)
            if not report.ok:
                failures.append(f"{op['name']}: {report.issues[0].message}")
        return failures

    # -- traced run --------------------------------------------------------

    def trace(self, recorder: SpanRecorder) -> Dict[str, float]:
        """Replays every op through the compile pipeline's public steps,
        and beside it (on inputs of its own, so that neither warms the
        other's caches) through ``compile_bouquet``."""
        plans = 0
        reduction_seconds: Dict[int, float] = {}
        for recorder.round in range(REPLAY_ROUNDS):
            direct = self._fresh_inputs()
            for op, (query, catalog, dimensions, base) in enumerate(self._fresh_inputs()):
                recorder.op = op
                recorder.end_to_end(lambda: self._compile(direct[op]))
                optimizer = catalog.optimizer(CONFIG)
                with recorder.span("optimizer.selectivity"):
                    if base is None:
                        base = actual_selectivities(query, catalog.database)
                with recorder.span("ess.space"):
                    resolution = CONFIG.resolution_for(len(dimensions))
                    space = SelectivitySpace(query, dimensions, resolution, base)
                with recorder.span("ess.posp"):
                    if space.size <= EXHAUSTIVE_LIMIT:
                        diagram = PlanDiagram.exhaustive(optimizer, space)
                    else:
                        diagram = PlanDiagram.from_candidates(
                            optimizer, space, coarse_subgrid(space, per_dim=4)
                        )
                with recorder.span("core.contours"):
                    bouquet = identify_bouquet(
                        diagram, lambda_=CONFIG.lambda_, ratio=CONFIG.ratio
                    )
                if recorder.round:
                    continue
                plans += len(diagram.posp_plan_ids)
                # The anorexic reduction runs inside identify_bouquet;
                # time it once more on its own, outside the span tree.
                locations = list(
                    dict.fromkeys(
                        loc for contour in bouquet.contours for loc in contour.locations
                    )
                )
                started = time.perf_counter()
                anorexic_reduce(diagram, locations, lambda_=CONFIG.lambda_)
                reduction_seconds[op] = time.perf_counter() - started
        metrics = {
            "api.compile_ms": 1000.0 * statistics.median(recorder.direct.values()),
            "ess.posp_ms": recorder.layer_ms("ess.posp"),
            "ess.posp_plans": float(plans),
            "ess.reduction_ms": 1000.0 * statistics.median(reduction_seconds.values()),
            "core.contours_ms": recorder.layer_ms("core.contours"),
            "harness.coverage": recorder.coverage(),
        }
        metrics.update(self.traced_counts)
        return metrics
