"""MSO fuzzing campaigns: hundreds of random queries through the pipeline.

The campaign is the repo's adversarial validation loop for the paper's
central theorem: for *every* query the bouquet's measured MSO must stay
within the guaranteed bound ``rho * (1 + lambda) * r^2 / (r - 1)``
(= ``4 * (1 + lambda) * rho`` at r=2, §3.2/§5.1).  Hand-picked workloads
can only ever exercise ten plan diagrams; the fuzzer samples the query
space itself — random join trees, random predicate mixes, per-query
sensitivity-chosen ESS axes — and checks the bound at every grid point
of every query.

Per-query pipeline::

    generate -> ground-truth base -> sensitivity dimensioning
             -> compile_bouquet -> sweep-engine optimized field
             -> MSO/ASO vs. 4(1+lambda)rho

Campaigns shard across processes on the persistent :mod:`repro.par`
pool, fork-preferred with a verified spawn fallback, results reassembled
in submission order.  Workers rebuild the (deterministic) environment from the
campaign config rather than inheriting live objects, so shard results
are independent of worker count and the report is bit-identical across
re-runs — wall-clock timings deliberately never enter the payload.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..exceptions import ReproError
from ..obs.tracer import NULL_TRACER, Tracer
from .generator import GeneratedQuery, GeneratorConfig, QueryGenerator

__all__ = [
    "CampaignConfig",
    "CampaignEnv",
    "CampaignReport",
    "QueryOutcome",
    "build_env",
    "run_campaign",
    "run_query",
]

#: Campaign grid resolutions by ESS dimensionality — coarser than the
#: interactive defaults; the bound must hold at *every* resolution, so a
#: coarse grid trades per-query depth for query-space breadth.
CAMPAIGN_RESOLUTIONS: Dict[int, int] = {1: 16, 2: 8, 3: 5, 4: 4, 5: 3}

#: Relative slack on the bound check, covering float accumulation in the
#: sweep engine — NOT a semantic tolerance; genuine violations exceed
#: the bound by integer factors, not parts per million.
BOUND_RTOL = 1e-6


class CampaignError(ReproError):
    """The campaign was misconfigured."""


@dataclass(frozen=True)
class CampaignConfig:
    """Everything needed to replay a campaign bit-for-bit.

    The triple ``(benchmark, scale, data_seed)`` pins the database,
    ``(stats_sample, stats_seed)`` the statistics, ``(seed, count,
    generator)`` the query stream, and the remaining knobs the compile
    pipeline — so the config *is* the campaign's identity, and the
    report embeds it verbatim for exact replay.
    """

    benchmark: str = "tpch"
    scale: float = 0.003
    data_seed: int = 7
    stats_sample: int = 1500
    stats_seed: int = 3
    seed: int = 42
    count: int = 200
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    max_dims: int = 3
    min_penalty: float = 1.05
    sensitivity_resolution: int = 4
    ratio: float = 2.0
    lambda_: float = 0.2
    workers: int = 1

    def __post_init__(self):
        if self.benchmark not in ("tpch", "tpcds"):
            raise CampaignError(
                f"campaign: unknown benchmark {self.benchmark!r} "
                "(expected 'tpch' or 'tpcds')"
            )
        if self.count < 1:
            raise CampaignError("campaign: count must be >= 1")
        if self.workers < 1:
            raise CampaignError("campaign: workers must be >= 1")
        if self.max_dims < 1:
            raise CampaignError("campaign: max_dims must be >= 1")

    def to_dict(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "scale": self.scale,
            "data_seed": self.data_seed,
            "stats_sample": self.stats_sample,
            "stats_seed": self.stats_seed,
            "seed": self.seed,
            "count": self.count,
            "generator": self.generator.to_dict(),
            "max_dims": self.max_dims,
            "min_penalty": self.min_penalty,
            "sensitivity_resolution": self.sensitivity_resolution,
            "ratio": self.ratio,
            "lambda_": self.lambda_,
            "workers": self.workers,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "CampaignConfig":
        payload = dict(data)
        gen = payload.get("generator")
        if isinstance(gen, Mapping):
            payload["generator"] = GeneratorConfig.from_dict(gen)
        return CampaignConfig(**payload)


@dataclass
class CampaignEnv:
    """The deterministic world a campaign (or one of its shards) runs in."""

    catalog: "object"  # repro.api.Catalog — typed loosely to avoid the cycle
    optimizer: "object"
    generator: QueryGenerator


def build_env(config: CampaignConfig, tracer: Optional[Tracer] = None) -> CampaignEnv:
    """Rebuild the campaign environment from its config, deterministically.

    Every shard calls this with the same config and lands in the same
    world — database generation, statistics sampling, and the query
    stream are all seed-pinned.
    """
    from ..api import Catalog
    from ..catalog.tpcds import tpcds_generator_spec, tpcds_schema
    from ..catalog.tpch import tpch_generator_spec, tpch_schema
    from ..datagen.database import Database
    from ..optimizer.optimizer import Optimizer

    if config.benchmark == "tpcds":
        schema = tpcds_schema(config.scale)
        spec = tpcds_generator_spec(config.scale)
    else:
        schema = tpch_schema(config.scale)
        spec = tpch_generator_spec(config.scale)
    database = Database.generate(schema, spec, seed=config.data_seed)
    statistics = database.build_statistics(
        sample_size=config.stats_sample, seed=config.stats_seed
    )
    optimizer = Optimizer(schema, statistics)
    if tracer is not None:
        optimizer.tracer = tracer
    generator = QueryGenerator(schema, database, config.generator)
    return CampaignEnv(
        catalog=Catalog(schema=schema, statistics=statistics, database=database),
        optimizer=optimizer,
        generator=generator,
    )


@dataclass
class QueryOutcome:
    """One fuzzed query's verdict: ok, bound violation, or crash."""

    index: int
    name: str
    status: str  # "ok" | "violation" | "crash"
    sql: str = ""
    geometry: str = ""
    dimensions: List[str] = field(default_factory=list)
    num_plans: int = 0
    mso: Optional[float] = None
    aso: Optional[float] = None
    bound: Optional[float] = None
    rho: Optional[int] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "name": self.name,
            "status": self.status,
            "sql": self.sql,
            "geometry": self.geometry,
            "dimensions": list(self.dimensions),
            "num_plans": self.num_plans,
            "mso": self.mso,
            "aso": self.aso,
            "bound": self.bound,
            "rho": self.rho,
            "error": self.error,
        }


def run_query(env: CampaignEnv, config: CampaignConfig, index: int) -> QueryOutcome:
    """Fuzz one query end-to-end; never raises — crashes become outcomes."""
    generated: Optional[GeneratedQuery] = None
    try:
        generated = env.generator.generate(config.seed, index)
        return _fuzz_generated(env, config, generated)
    except Exception:
        return QueryOutcome(
            index=index,
            name=generated.name if generated is not None else f"W{config.seed}_{index}",
            status="crash",
            sql=generated.sql if generated is not None else "",
            geometry=generated.geometry if generated is not None else "",
            error=traceback.format_exc(),
        )


def _fuzz_generated(
    env: CampaignEnv, config: CampaignConfig, generated: GeneratedQuery
) -> QueryOutcome:
    from ..api import BouquetConfig, compile_bouquet
    from ..robustness.metrics import bouquet_aso, bouquet_mso, optimized_field
    from ..ess.dimensioning import dimension_query

    query = generated.query
    result = dimension_query(
        env.optimizer,
        query,
        env.catalog.database,
        max_dims=config.max_dims,
        min_penalty=config.min_penalty,
        resolution=config.sensitivity_resolution,
    )
    resolution = CAMPAIGN_RESOLUTIONS.get(len(result.dimensions), 3)
    compiled = compile_bouquet(
        query,
        env.catalog,
        config=BouquetConfig(
            ratio=config.ratio, lambda_=config.lambda_, resolution=resolution
        ),
        dimensions=result.dimensions,
        base_assignment=result.base_assignment,
        optimizer=env.optimizer,
    )
    bouquet = compiled.bouquet
    fld = optimized_field(bouquet)
    pic = bouquet.diagram.costs
    mso = bouquet_mso(fld, pic)
    aso = bouquet_aso(fld, pic)
    bound = bouquet.mso_bound
    status = "ok" if mso <= bound * (1.0 + BOUND_RTOL) else "violation"
    return QueryOutcome(
        index=generated.index,
        name=generated.name,
        status=status,
        sql=generated.sql,
        geometry=generated.geometry,
        dimensions=result.pids,
        num_plans=bouquet.cardinality,
        mso=float(mso),
        aso=float(aso),
        bound=float(bound),
        rho=int(bouquet.rho),
        error=None,
    )


# ---------------------------------------------------------------------------
# Campaign report
# ---------------------------------------------------------------------------


def _percentile(values: List[float], q: float) -> Optional[float]:
    if not values:
        return None
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass
class CampaignReport:
    """Aggregate verdict of one campaign: distributions + failure roster."""

    config: CampaignConfig
    outcomes: List[QueryOutcome]

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def crashes(self) -> List[QueryOutcome]:
        return [o for o in self.outcomes if o.status == "crash"]

    @property
    def violations(self) -> List[QueryOutcome]:
        return [o for o in self.outcomes if o.status == "violation"]

    def _msos(self) -> List[float]:
        return [o.mso for o in self.outcomes if o.mso is not None]

    def _asos(self) -> List[float]:
        return [o.aso for o in self.outcomes if o.aso is not None]

    def summary(self) -> Dict[str, object]:
        msos, asos = self._msos(), self._asos()
        margins = [
            o.mso / o.bound
            for o in self.outcomes
            if o.mso is not None and o.bound
        ]
        geometries: Dict[str, int] = {}
        for outcome in self.outcomes:
            if outcome.geometry:
                key = outcome.geometry.split("(")[0]
                geometries[key] = geometries.get(key, 0) + 1
        return {
            "queries": len(self.outcomes),
            "ok": sum(1 for o in self.outcomes if o.ok),
            "violations": len(self.violations),
            "crashes": len(self.crashes),
            "mso_max": max(msos) if msos else None,
            "mso_p95": _percentile(msos, 95),
            "mso_median": _percentile(msos, 50),
            "aso_mean": float(np.mean(asos)) if asos else None,
            "worst_bound_margin": max(margins) if margins else None,
            "geometries": dict(sorted(geometries.items())),
        }

    def to_dict(self) -> Dict[str, object]:
        """The ``repro fuzz --out`` payload — deterministic by design.

        Contains no wall-clock data; outcomes are sorted by query index
        regardless of shard completion order, so the same config yields
        a byte-identical JSON document on every run.
        """
        return {
            "bench": "workload",
            "config": self.config.to_dict(),
            "summary": self.summary(),
            "failures": [
                o.to_dict()
                for o in sorted(
                    self.outcomes, key=lambda o: o.index
                )
                if not o.ok
            ],
            "results": [
                o.to_dict() for o in sorted(self.outcomes, key=lambda o: o.index)
            ],
        }

    def describe(self) -> str:
        s = self.summary()
        lines = [
            f"workload fuzzing campaign: {self.config.benchmark} "
            f"seed={self.config.seed} count={self.config.count}",
            f"  ok={s['ok']}/{s['queries']}  "
            f"violations={s['violations']}  crashes={s['crashes']}",
        ]
        if s["mso_max"] is not None:
            lines.append(
                f"  MSO median={s['mso_median']:.3f} p95={s['mso_p95']:.3f} "
                f"max={s['mso_max']:.3f}  ASO mean={s['aso_mean']:.3f}"
            )
            lines.append(
                f"  worst bound margin (MSO / 4(1+lambda)rho) = "
                f"{s['worst_bound_margin']:.4f}"
            )
        lines.append(
            "  geometries: "
            + ", ".join(f"{k}={v}" for k, v in s["geometries"].items())
        )
        for outcome in (self.violations + self.crashes)[:5]:
            first = (outcome.error or "").strip().splitlines()
            detail = first[-1] if first else f"mso={outcome.mso} bound={outcome.bound}"
            lines.append(f"  FAIL {outcome.name} [{outcome.status}]: {detail}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Sharded execution
# ---------------------------------------------------------------------------


def _run_chunk(ctx, config: CampaignConfig, indices: List[int]) -> List[QueryOutcome]:
    # repro.par task: the payload is the (tiny) campaign config; the
    # deterministic environment is rebuilt once per worker per config
    # digest via the worker-side memo and reused across chunks *and*
    # across campaign calls — the big win for windowed campaigns.
    # Workers never trace (build_env pins the null tracer).
    env = ctx.memo("env", lambda: build_env(config, tracer=NULL_TRACER))
    return [run_query(env, config, index) for index in indices]


def run_campaign(
    config: CampaignConfig,
    tracer: Optional[Tracer] = None,
    progress=None,
) -> CampaignReport:
    """Run the full campaign, sharded across ``config.workers`` processes.

    ``progress`` (optional) is called with each completed
    :class:`QueryOutcome` as shards stream in — index order within a
    shard, shards interleaved.  The report itself is order-normalized.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    indices = list(range(config.count))
    with tracer.span(
        "wlgen.campaign",
        benchmark=config.benchmark,
        seed=config.seed,
        count=config.count,
        workers=config.workers,
    ):
        if config.workers <= 1:
            env = build_env(config, tracer=tracer)
            outcomes = []
            for index in indices:
                outcome = run_query(env, config, index)
                outcomes.append(outcome)
                if progress is not None:
                    progress(outcome)
            return CampaignReport(config=config, outcomes=outcomes)
        outcomes = _parallel_campaign(config, indices, tracer, progress)
    return CampaignReport(config=config, outcomes=outcomes)


def _parallel_campaign(
    config: CampaignConfig, indices: List[int], tracer: Tracer, progress
) -> List[QueryOutcome]:
    """Shard the index range over the persistent :mod:`repro.par` pool."""
    from ..par import ParError, get_pool

    chunk_size = max(1, len(indices) // (config.workers * 4))
    chunks = [
        indices[i : i + chunk_size] for i in range(0, len(indices), chunk_size)
    ]
    if tracer.enabled:
        tracer.event(
            "wlgen.campaign_fanout",
            workers=config.workers,
            chunks=len(chunks),
            queries=len(indices),
        )
    pool = get_pool(config.workers, tracer=tracer)
    on_result = None
    if progress is not None:
        def on_result(seq, chunk_result):
            for outcome in chunk_result:
                progress(outcome)
    try:
        results = pool.run(
            _run_chunk, config, chunks, tracer=tracer, on_result=on_result
        )
    except ParError as exc:
        raise CampaignError(f"sharded campaign failed: {exc}") from exc
    return [outcome for chunk_result in results for outcome in chunk_result]
