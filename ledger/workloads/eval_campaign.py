"""eval_campaign — the researcher's loop (Figures 14-17 at scale).

A TPC-DS MSO campaign over generated queries; each query is one op,
dispatched through the persistent two-worker ``repro.par`` pool with a
ledger-owned task that calls the public ``build_env`` (once per worker,
via ``ctx.memo``) and ``run_query``: dimensioning, compile, sweep-engine
optimized field, MSO against the 4(1+lambda)rho bound.  Everything is
abstract-cost arithmetic — the executor and the serving layers are never
entered.  ``op_p90_ms`` follows the heavy tail of per-query sweep cost,
``ops_per_s`` the mean, and every op pays one pool dispatch.

One query per dispatch, not ISSUE 13's windows of four: a window keeps
both workers — both vCPUs of this box — busy, so whatever else the host
schedules lands on the op, and a window waits for the slower worker.
Twenty interleaved runs of the same 32 queries spread (inter-quartile
distance over median, reported values) 10% / 6% / 13% / 11% on
``ops_per_s`` / ``op_p50_ms`` / ``op_p90_ms`` / ``cpu_ms_per_op`` as 8
windows of 4, and 4.5% / 8% / 7% / 4.4% as 32 single-query ops.  What two
workers buy is the per-layer metric ``par.speedup_2w``.

Which queries a pass holds is fixed (the first ``QUERIES`` of the pool
seed); the seed shuffles their order.  With 31 of them the 50th and the
90th percentile are each exactly one query's slot (ranks 16 and 28), and
a pass is short enough (2 s) for ten of them to fit a run.
"""

from __future__ import annotations

import json
import os
import resource
import time
from typing import Dict, List

from repro.api import BouquetConfig, compile_bouquet
from repro.obs import NULL_TRACER
from repro.par import get_pool, leaked_segments, shutdown_pools
from repro.robustness import bouquet_aso, bouquet_mso, optimized_field
from repro.wlgen import (
    CAMPAIGN_RESOLUTIONS,
    CampaignConfig,
    build_env,
    dimension_query,
    run_query,
)

from .. import env
from ..spans import REPLAY_ROUNDS, SpanRecorder, new_tracer
from .base import Workload

QUERIES = 31
WORKERS = 2
#: Queries re-run as one batch on a one-worker pool: their verdicts must
#: equal the timed ones, and the batch is what ``par.speedup_2w`` times.
CHECKED_QUERIES = 20
NOOP_TASKS = 200


def query_task(ctx, config: CampaignConfig, index: int):
    """One campaign query, in a pool worker.  Besides the verdict it
    reports the worker's cumulative CPU seconds and peak RSS, which is
    how the parent accounts worker CPU without reaping the pool."""
    world = ctx.memo("env", lambda: build_env(config))
    outcome = run_query(world, config, index)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return outcome, os.getpid(), time.process_time(), peak_kb


def noop_task(ctx, payload, item):
    return item


class EvalCampaign(Workload):
    name = "eval_campaign"

    def build_ops(self) -> None:
        count = self.scaled(QUERIES)
        self.config = CampaignConfig(
            benchmark="tpcds",
            scale=env.SCALE,
            data_seed=env.DATA_SEED,
            stats_sample=env.STATS_SAMPLE,
            stats_seed=env.STATS_SEED,
            seed=env.POOL_SEED,
            count=count,
            workers=WORKERS,
        )
        self.ops = [{"kind": "query", "index": index} for index in range(count)]
        self.rng().shuffle(self.ops)

    def setup(self) -> None:
        self.build_ops()
        self.tracer = NULL_TRACER
        self.worker_cpu: Dict[int, float] = {}
        self.worker_peak_kb = 0
        self.roster: List[Dict[str, object]] = []
        self.rosters: List[str] = []
        self.outcomes: Dict[int, object] = {}

    # -- one pass ----------------------------------------------------------

    def begin_pass(self, traced: bool = False) -> None:
        self.tracer = new_tracer() if traced else NULL_TRACER
        self.roster = []

    def _dispatch(self, indices: List[int], workers: int):
        results = get_pool(workers).run(
            query_task, self.config, indices, tracer=self.tracer
        )
        # Inside the op, so that the harness's CPU reading after it
        # already includes what the worker spent on it.
        for _outcome, pid, cpu, peak_kb in results:
            self.worker_cpu[pid] = cpu
            self.worker_peak_kb = max(self.worker_peak_kb, peak_kb)
        return results

    def run_op(self, slot: int):
        return self._dispatch([self.ops[slot]["index"]], WORKERS)

    def check_op(self, slot: int, results) -> bool:
        ok = True
        for outcome, _pid, _cpu, _peak_kb in results:
            self.outcomes[outcome.index] = outcome
            self.roster.append(outcome.to_dict())
            ok = ok and outcome.status == "ok"
        return ok

    def child_cpu_seconds(self) -> float:
        return sum(self.worker_cpu.values())

    def end_pass(self) -> None:
        self.roster.sort(key=lambda row: row["index"])
        self.rosters.append(json.dumps(self.roster, sort_keys=True))

    def verify(self) -> List[str]:
        failures = []
        for number, roster in enumerate(self.rosters[1:], start=1):
            if roster != self.rosters[0]:
                failures.append(f"pass {number}: roster differs from pass 0")
        for outcome, _pid, _cpu, _peak in self._dispatch(self._checked(), 1):
            if outcome.to_dict() != self.outcomes[outcome.index].to_dict():
                failures.append(f"query {outcome.index}: 1-worker verdict differs")
        shutdown_pools()
        leaked = leaked_segments()
        if leaked:
            failures.append(f"leaked shared-memory segments: {leaked}")
        return failures

    def _checked(self) -> List[int]:
        return [op["index"] for op in self.ops[:CHECKED_QUERIES]]

    def close(self) -> None:
        shutdown_pools()

    # -- traced run --------------------------------------------------------

    def trace(self, recorder: SpanRecorder) -> Dict[str, float]:
        config = self.config
        self.tracer = NULL_TRACER
        world = build_env(config)
        indices = self._checked()
        locations = 0
        for recorder.round in range(REPLAY_ROUNDS):
            for index in indices:
                recorder.op = index
                recorder.end_to_end(lambda: run_query(world, config, index))
                # The same query, one public call per layer.
                with recorder.span("wlgen.generate"):
                    generated = world.generator.generate(config.seed, index)
                with recorder.span("wlgen.dimension"):
                    chosen = dimension_query(
                        world.optimizer,
                        generated.query,
                        world.catalog.database,
                        max_dims=config.max_dims,
                        min_penalty=config.min_penalty,
                        resolution=config.sensitivity_resolution,
                    )
                with recorder.span("api.compile"):
                    compiled = compile_bouquet(
                        generated.query,
                        world.catalog,
                        config=BouquetConfig(
                            ratio=config.ratio,
                            lambda_=config.lambda_,
                            resolution=CAMPAIGN_RESOLUTIONS.get(
                                len(chosen.dimensions), 3
                            ),
                        ),
                        dimensions=chosen.dimensions,
                        base_assignment=chosen.base_assignment,
                        optimizer=world.optimizer,
                    )
                with recorder.span("sweep.field"):
                    field = optimized_field(compiled.bouquet)
                with recorder.span("robustness.mso"):
                    pic = compiled.bouquet.diagram.costs
                    bouquet_mso(field, pic)
                    bouquet_aso(field, pic)
                if recorder.round == 0:
                    locations += compiled.space.size
        sweep_seconds = sum(recorder.per_op()["sweep.field"].values())
        two, one = self._batch_wall(WORKERS), self._batch_wall(1)
        # What every op pays on top of its query: one single-task run
        # with the campaign config as (cached) payload.
        pool = get_pool(WORKERS)
        started = time.perf_counter()
        for item in range(self.scaled(NOOP_TASKS)):
            pool.run(noop_task, config, [item])
        dispatch = (time.perf_counter() - started) / self.scaled(NOOP_TASKS)
        return {
            "wlgen.generate_ms": recorder.layer_ms("wlgen.generate"),
            "wlgen.dimension_ms": recorder.layer_ms("wlgen.dimension"),
            "api.compile_ms": recorder.layer_ms("api.compile"),
            "sweep.field_ms": recorder.layer_ms("sweep.field"),
            "sweep.locations_per_s": locations / sweep_seconds,
            "robustness.mso_ms": recorder.layer_ms("robustness.mso"),
            "core.mso_over_bound_max": max(
                o.mso / o.bound for o in self.outcomes.values()
            ),
            "par.dispatch_ms_per_task": 1000.0 * dispatch,
            "par.speedup_2w": one / two,
            "par.payload_ships": float(pool.stats.payload_ships),
            "par.payload_hits": float(pool.stats.payload_hits),
            "par.worker_peak_rss_mb": self.worker_peak_kb / 1024.0,
            "par.leaked_segments": float(len(leaked_segments())),
            "harness.coverage": recorder.coverage(),
        }

    def _batch_wall(self, workers: int) -> float:
        """Best-of wall seconds of the checked queries dispatched as one
        batch on ``workers``."""
        best = float("inf")
        for _ in range(REPLAY_ROUNDS):
            started = time.perf_counter()
            self._dispatch(self._checked(), workers)
            best = min(best, time.perf_counter() - started)
        return best
