"""repro.api — the stable public facade over the bouquet pipeline.

Three nouns and three verbs cover the whole system:

* :class:`Catalog` — the compile-time world view (schema, statistics,
  optionally the data itself);
* :class:`BouquetConfig` — a frozen bundle of every knob the pipeline
  accepts (r, λ, resolution, runtime mode, cost-model δ), replacing the
  keyword sprawl of the legacy constructor chain;
* :class:`CompiledBouquet` — the compile artifact, serializable and
  cacheable (see :mod:`repro.serve`);
* :func:`compile_bouquet` / :func:`execute` / :func:`simulate`.

Typical usage::

    from repro.api import BouquetConfig, Catalog, compile_bouquet, execute

    catalog = Catalog(schema, statistics=stats, database=db)
    compiled = compile_bouquet(sql, catalog, config=BouquetConfig(resolution=24))
    result = execute(compiled, db)

``execute`` / ``simulate`` take the per-run knobs as keywords
(``budget=``, ``mode=``); the serving layer unpacks its
:class:`~repro.serve.envelope.ServeRequest` into the same keywords.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Union

from .catalog.schema import Schema
from .catalog.statistics import DatabaseStatistics
from .core.artifact import bouquet_from_dict, bouquet_to_dict
from .core.bouquet import PlanBouquet, identify_bouquet
from .core.runtime import (
    EQUIVALENCE_THRESHOLD,
    AbstractExecutionService,
    BouquetRunner,
    BouquetRunResult,
    ExecutionOutcome,
    ExecutionService,
    KnownSelectivities,
)
from .datagen.database import Database
from .ess.diagram import PlanDiagram
from .ess.dimensioning import Uncertainty, select_error_dimensions
from .ess.space import ErrorDimension, SelectivitySpace
from .exceptions import BouquetError, BudgetExceeded
from .executor.engine import ExecutionEngine
from .executor.service import RealExecutionService
from .obs.tracer import NULL_TRACER, Tracer
from .optimizer.cost_model import COMMERCIAL_COST_MODEL, POSTGRES_COST_MODEL, CostModel
from .optimizer.optimizer import Optimizer
from .optimizer.selectivity import actual_selectivities
from .query.predicates import JoinPredicate
from .query.query import Query
from .query.sql import parse_query
from .query.workload import SELECTION_DIM_RANGE, join_dim_maximum

__all__ = [
    "BouquetConfig",
    "Catalog",
    "CompiledBouquet",
    "DEFAULT_CONFIG",
    "compile_bouquet",
    "default_error_dimensions",
    "execute",
    "generate_workload",
    "simulate",
]

#: Format tag of the self-describing artifact envelope (config + SQL +
#: the v2 bouquet payload from :mod:`repro.core.artifact`).
ARTIFACT_FORMAT = "repro.bouquet.artifact.v3"

#: Default grid points per dimension, by ESS dimensionality.
DEFAULT_RESOLUTIONS = {1: 64, 2: 24, 3: 10, 4: 6, 5: 5}

#: Ledger-only: the frozen ``compile_cold`` replay still branches on it
#: to a candidate diagram its grids never reach.  Every compile is
#: exhaustive (DESIGN decision 26).
EXHAUSTIVE_LIMIT = 4096

_COST_MODELS: Dict[str, CostModel] = {
    "postgres": POSTGRES_COST_MODEL,
    "commercial": COMMERCIAL_COST_MODEL,
}

_MODES = ("basic", "optimized")


@dataclass(frozen=True)
class BouquetConfig:
    """Every pipeline knob, frozen and hashable.

    ``ratio`` (the paper's *r*), ``lambda_`` (anorexic λ), and
    ``resolution`` are the compile knobs — they determine the compiled
    artifact and participate in cache keys (see
    :func:`repro.serve.fingerprint.artifact_key`).  The rest are runtime
    knobs: ``mode`` toggles the spill/AxisPlans optimized driver vs. the
    basic Figure 7 driver, and ``model_error_delta`` is the §3.4 bounded
    cost-model-error δ (budgets inflate by 1+δ).  The cost-equivalence
    group width is not a knob: the run-time driver and the sweep that
    measures it both read ``core.runtime.EQUIVALENCE_THRESHOLD``, which
    ``equivalence_threshold`` reports read-only.  Nor is the contour
    crossing: a contour's plans always run one at a time, and
    ``crossing`` reports ``"sequential"`` read-only.

    There is no compile-engine knob: POSP generation always runs the
    DPsize enumeration once per slab of ESS locations
    (:mod:`repro.batchopt`), and :meth:`Optimizer.optimize` is that DP
    over one location; the scalar DP it replaced is the oracle
    (``tests/conftest.py::scalar_optimize``) the tests loop over.

    ``template`` governs the cross-query template cache
    (:mod:`repro.template`): when enabled (default) the serving layer
    answers a miss on the exact-key artifact store by rebinding a
    compiled bouquet from another instance of the same query template
    (:class:`repro.serve.BouquetServer`).  Rebinds are
    validated structurally and fall back to a full compile on any
    mismatch, so the knob only trades compile latency — it never changes
    the artifact.  Like ``mode`` it is a runtime knob, never part of the
    artifact cache key.  A statistics refresh is not a knob: it carries
    every cached artifact over when nothing its compile sees has moved,
    and invalidates it otherwise (:mod:`repro.drift`).
    """

    ratio: float = 2.0
    lambda_: float = 0.2
    resolution: Optional[int] = None
    mode: str = "optimized"
    model_error_delta: float = 0.0
    cost_model: str = "postgres"
    template: bool = True

    def __post_init__(self):
        if self.ratio <= 1.0:
            raise BouquetError("config: ratio (r) must exceed 1")
        if self.lambda_ < 0.0:
            raise BouquetError("config: lambda must be non-negative")
        if self.resolution is not None and self.resolution < 2:
            raise BouquetError("config: resolution must be at least 2")
        if self.mode not in _MODES:
            raise BouquetError(f"config: unknown runtime mode {self.mode!r}")
        if self.model_error_delta < 0.0:
            raise BouquetError("config: model_error_delta must be non-negative")
        if self.cost_model not in _COST_MODELS:
            raise BouquetError(
                f"config: unknown cost model {self.cost_model!r} "
                f"(expected one of {sorted(_COST_MODELS)})"
            )
        if not isinstance(self.template, bool):
            raise BouquetError("config: template must be a bool")

    @property
    def cost_model_object(self) -> CostModel:
        return _COST_MODELS[self.cost_model]

    @property
    def equivalence_threshold(self) -> float:
        return EQUIVALENCE_THRESHOLD

    @property
    def crossing(self) -> str:
        return "sequential"

    def compile_knobs(self) -> Dict[str, object]:
        """The knobs that determine the compiled artifact (cache-key part)."""
        return {
            "ratio": self.ratio,
            "lambda": self.lambda_,
            "resolution": self.resolution,
            "cost_model": self.cost_model,
        }

    def resolution_for(self, dimensionality: int) -> int:
        if self.resolution is not None:
            return self.resolution
        return DEFAULT_RESOLUTIONS.get(dimensionality, 5)

    def with_(self, **changes) -> "BouquetConfig":
        """A copy with the given fields replaced (frozen-friendly)."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ratio": self.ratio,
            "lambda_": self.lambda_,
            "resolution": self.resolution,
            "mode": self.mode,
            "model_error_delta": self.model_error_delta,
            "cost_model": self.cost_model,
            "template": self.template,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "BouquetConfig":
        # Retired knobs (a compile-engine selector, a settable
        # ``equivalence_threshold``, ``crossing``, ``patch``) never entered
        # the artifact key, so a config block that carries one has it
        # dropped, not rejected.
        fields = dict(data)
        for dropped in ("compile_engine", "equivalence_threshold", "crossing", "patch"):
            fields.pop(dropped, None)
        return BouquetConfig(**fields)


DEFAULT_CONFIG = BouquetConfig()


@dataclass
class Catalog:
    """The compile-time environment: schema, statistics, optional data.

    ``statistics`` may be ``None`` (the ETL/no-stats scenario: magic
    numbers everywhere); ``database`` enables ground-truth base
    assignments at compile time and is the default execution target.
    """

    schema: Schema
    statistics: Optional[DatabaseStatistics] = None
    database: Optional[Database] = None

    def optimizer(
        self, config: BouquetConfig = DEFAULT_CONFIG, tracer: Optional[Tracer] = None
    ) -> Optimizer:
        return Optimizer(
            self.schema,
            self.statistics,
            config.cost_model_object,
            tracer=tracer if tracer is not None else NULL_TRACER,
        )


@dataclass
class CompiledBouquet:
    """The compile-time artifact: a bouquet plus the config that built it."""

    query: Query
    bouquet: PlanBouquet
    config: BouquetConfig
    sql: Optional[str] = None

    @property
    def space(self) -> SelectivitySpace:
        return self.bouquet.space

    @property
    def mso_bound(self) -> float:
        return self.bouquet.mso_bound

    # -- persistence -----------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "format": ARTIFACT_FORMAT,
            "sql": self.sql,
            "config": self.config.to_dict(),
            "bouquet": bouquet_to_dict(self.query, self.bouquet),
        }

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(json.dumps(self.to_dict()))

    @staticmethod
    def from_dict(
        data: Dict,
        catalog: Catalog,
        query: Optional[Union[str, Query]] = None,
        optimizer: Optional[Optimizer] = None,
    ) -> "CompiledBouquet":
        if data.get("format") != ARTIFACT_FORMAT:
            raise BouquetError("unrecognized bouquet artifact format")
        config = BouquetConfig.from_dict(data["config"])
        sql = data.get("sql")
        if query is None:
            if not sql:
                raise BouquetError(
                    "artifact stores no SQL; supply the query explicitly"
                )
            query = sql
        if isinstance(query, str):
            query = parse_query(query, catalog.schema)
        if optimizer is None:
            optimizer = catalog.optimizer(config)
        bouquet = bouquet_from_dict(data["bouquet"], optimizer, query)
        return CompiledBouquet(query=query, bouquet=bouquet, config=config, sql=sql)

    @staticmethod
    def load(
        path: str,
        catalog: Catalog,
        query: Optional[Union[str, Query]] = None,
        optimizer: Optional[Optimizer] = None,
    ) -> "CompiledBouquet":
        with open(path) as handle:
            data = json.load(handle)
        return CompiledBouquet.from_dict(data, catalog, query, optimizer)


# ---------------------------------------------------------------------------
# Error-dimension selection (§4.1)
# ---------------------------------------------------------------------------


def default_error_dimensions(
    query: Query, schema: Schema, statistics: Optional[DatabaseStatistics]
) -> List[ErrorDimension]:
    """Cascade through the §4.1 mechanisms: high-uncertainty predicates
    first, then anything estimable-but-fallible, then the paper's
    fallback — every predicate whose selectivity is evaluated at all."""
    pids: List[str] = []
    for threshold in (Uncertainty.MEDIUM, Uncertainty.LOW, Uncertainty.NONE):
        pids = select_error_dimensions(query, statistics, threshold)
        if pids:
            break
    dims = []
    for pid in pids:
        pred = query.predicate(pid)
        if isinstance(pred, JoinPredicate):
            hi = join_dim_maximum(schema, pred)
            lo = hi / 1000.0
            label = f"{pred.left_table}x{pred.right_table}"
        else:
            lo, hi = SELECTION_DIM_RANGE
            label = f"{pred.table}.{pred.column}"
        dims.append(ErrorDimension(pid=pid, lo=lo, hi=hi, label=label))
    return dims


# ---------------------------------------------------------------------------
# Compile
# ---------------------------------------------------------------------------


def compile_bouquet(
    query: Union[str, Query],
    catalog: Catalog,
    *,
    config: Optional[BouquetConfig] = None,
    dimensions: Optional[Sequence[ErrorDimension]] = None,
    base_assignment: Optional[Mapping[str, float]] = None,
    tracer: Optional[Tracer] = None,
    cache: Optional["object"] = None,
    optimizer: Optional[Optimizer] = None,
) -> CompiledBouquet:
    """Run the compile-time phase (Figure 8, left half).

    ``query`` may be SQL text (the SPJ fragment) or a ``Query``.  Error
    dimensions default to the §4.1 uncertainty rules; the base assignment
    defaults to ground truth when the catalog carries a database
    (non-error selectivities are assumed accurately estimable, §8) and to
    statistics-based estimates otherwise.

    ``cache`` may be a :class:`repro.serve.BouquetArtifactStore`; when the
    (query, statistics, compile-knobs) content hash is already cached the
    compiled artifact is returned without a single optimizer call.
    Explicit ``dimensions``/``base_assignment`` overrides bypass the
    cache (they are not part of its key).  The template tier — rebinding
    another instance of the same query template instead of recompiling —
    belongs to :class:`repro.serve.BouquetServer`.
    """
    config = config if config is not None else DEFAULT_CONFIG
    tracer = tracer if tracer is not None else NULL_TRACER
    sql = query if isinstance(query, str) else None
    if isinstance(query, str):
        query = parse_query(query, catalog.schema)
    key = None
    if cache is not None and dimensions is None and base_assignment is None:
        from .serve.fingerprint import artifact_key

        key = artifact_key(query, catalog.statistics, config)
        hit = cache.get(key, catalog, query=query, tracer=tracer)
        if hit is not None:
            return hit
    compiled = _compile_pipeline(
        query, catalog, config, dimensions, base_assignment, tracer,
        optimizer, sql, span_name="api.compile",
    )
    if key is not None:
        cache.put(key, compiled, tracer=tracer)
    return compiled


def _compile_pipeline(
    query: Query,
    catalog: Catalog,
    config: BouquetConfig,
    dimensions: Optional[Sequence[ErrorDimension]],
    base_assignment: Optional[Mapping[str, float]],
    tracer: Tracer,
    optimizer: Optional[Optimizer],
    sql: Optional[str],
    span_name: str = "api.compile",
) -> CompiledBouquet:
    """The shared compile core (also entered by the serving layer)."""
    if optimizer is None:
        optimizer = catalog.optimizer(config, tracer=tracer)
    if dimensions is None:
        dimensions = default_error_dimensions(query, catalog.schema, catalog.statistics)
    if not dimensions:
        raise BouquetError(
            "no error-prone dimensions identified; the native optimizer "
            "suffices for this query"
        )
    with tracer.span(span_name, query=query.name) as span:
        space = _compile_space(
            query, catalog, config, optimizer, dimensions, base_assignment
        )
        diagram = PlanDiagram.exhaustive(optimizer, space)
        bouquet = identify_bouquet(diagram, lambda_=config.lambda_, ratio=config.ratio)
        span.set(
            dimensions=space.dimensionality,
            grid=space.size,
            cardinality=bouquet.cardinality,
            contours=len(bouquet.contours),
            mso_bound=bouquet.mso_bound,
        )
    return CompiledBouquet(query=query, bouquet=bouquet, config=config, sql=sql)


def _compile_space(
    query: Query,
    catalog: Catalog,
    config: BouquetConfig,
    optimizer: Optimizer,
    dimensions: Sequence[ErrorDimension],
    base_assignment: Optional[Mapping[str, float]],
) -> SelectivitySpace:
    """The ESS a compile plans: the config's grid over ``dimensions``,
    at the base assignment — ground truth when the catalog carries a
    database (non-error selectivities are assumed accurately estimable,
    §8), statistics-based estimates otherwise.  The compile and the
    carry-over (:func:`repro.drift.refresh.carry_over`) both derive it
    here, so a carry-over compares against what a compile would see."""
    if base_assignment is None:
        if catalog.database is not None:
            base_assignment = actual_selectivities(query, catalog.database)
        else:
            base_assignment = optimizer.estimated_assignment(query)
    res = config.resolution_for(len(dimensions))
    return SelectivitySpace(query, dimensions, res, base_assignment)


# ---------------------------------------------------------------------------
# Execute
# ---------------------------------------------------------------------------


class BudgetCappedService(ExecutionService):
    """Caps the cumulative cost a request may spend across all partial
    executions.  When the cap truncates an execution that the bouquet
    protocol expected to run under its full contour budget,
    :class:`~repro.exceptions.BudgetExceeded` is raised — the driver's
    doubling guarantee no longer holds past that point."""

    def __init__(self, inner: ExecutionService, budget: float):
        if budget <= 0:
            raise BouquetError("request budget must be positive")
        self.inner = inner
        self.budget = float(budget)
        self.spent = 0.0

    def _allowed(self, requested: float) -> float:
        remaining = self.budget - self.spent
        if remaining <= 0:
            raise BudgetExceeded(
                f"request budget {self.budget:g} exhausted after spending "
                f"{self.spent:g}"
            )
        return min(requested, remaining)

    def _charge(self, outcome: ExecutionOutcome, truncated: bool) -> ExecutionOutcome:
        self.spent += outcome.cost_spent
        if truncated and not outcome.completed:
            raise BudgetExceeded(
                f"request budget {self.budget:g} exhausted mid-bouquet "
                f"(spent {self.spent:g})"
            )
        return outcome

    def known_selectivities(self) -> KnownSelectivities:
        """Forwarded; what the probes charged counts against the cap."""
        known = self.inner.known_selectivities()
        self.spent += known.cost
        return known

    def run_full(self, plan_id: int, budget: float) -> ExecutionOutcome:
        allowed = self._allowed(budget)
        outcome = self.inner.run_full(plan_id, allowed)
        return self._charge(outcome, truncated=allowed < budget)

    def run_spilled(
        self,
        plan_id: int,
        budget: float,
        unlearned_pids: FrozenSet[str],
    ) -> ExecutionOutcome:
        allowed = self._allowed(budget)
        outcome = self.inner.run_spilled(plan_id, allowed, unlearned_pids)
        return self._charge(outcome, truncated=allowed < budget)


def execute(
    compiled: CompiledBouquet,
    data: Optional[Database] = None,
    *,
    budget: Optional[float] = None,
    mode: Optional[str] = None,
    tracer: Optional[Tracer] = None,
    span_name: str = "api.execute",
) -> BouquetRunResult:
    """Run the bouquet for real against ``data``.

    ``budget`` caps the *total* cost the request may spend across every
    partial execution (exceeding it raises
    :class:`~repro.exceptions.BudgetExceeded`); ``mode`` overrides the
    compiled config's run-time mode.
    """
    if data is None:
        raise BouquetError("no database given; use simulate() instead")
    tracer = tracer if tracer is not None else NULL_TRACER
    config = compiled.config
    run_mode = mode if mode is not None else config.mode
    cost_model = compiled.bouquet.cost_cache.optimizer.cost_model
    with tracer.span(span_name, query=compiled.query.name, mode=run_mode):
        engine = ExecutionEngine(data, cost_model=cost_model, tracer=tracer)
        service: ExecutionService = RealExecutionService(compiled.bouquet, engine)
        if budget is not None:
            service = BudgetCappedService(service, budget)
        return BouquetRunner(
            compiled.bouquet,
            service,
            mode=run_mode,
            model_error_delta=config.model_error_delta,
            tracer=tracer,
        ).run()


def simulate(
    compiled: CompiledBouquet,
    qa_values: Sequence[float],
    *,
    mode: Optional[str] = None,
    tracer: Optional[Tracer] = None,
    span_name: str = "api.simulate",
) -> BouquetRunResult:
    """Cost-model-world run against a hypothetical actual location.

    ``mode`` overrides the compiled config's run-time mode.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    config = compiled.config
    run_mode = mode if mode is not None else config.mode
    with tracer.span(span_name, query=compiled.query.name, mode=run_mode):
        service = AbstractExecutionService(compiled.bouquet, qa_values)
        return BouquetRunner(
            compiled.bouquet,
            service,
            mode=run_mode,
            model_error_delta=config.model_error_delta,
            tracer=tracer,
        ).run()


# ---------------------------------------------------------------------------
# Workload generation (the repro.wlgen facade)
# ---------------------------------------------------------------------------


def generate_workload(
    catalog: Catalog,
    count: int,
    seed: int = 42,
    config: Optional["object"] = None,
) -> List["object"]:
    """Sample ``count`` seeded random queries over ``catalog``.

    Returns :class:`~repro.wlgen.generator.GeneratedQuery` objects
    (each carries its ``Query``, its rendered SQL, and its
    ``(seed, index)`` replay coordinates).  The same ``(catalog, seed,
    count, config)`` always yields the same workload — the generator's
    determinism contract.  ``config`` is a
    :class:`~repro.wlgen.generator.GeneratorConfig`.
    """
    from .wlgen.generator import QueryGenerator

    generator = QueryGenerator(catalog.schema, catalog.database, config)
    return generator.generate_many(seed, count)

