"""Shared experimental harness ("the lab").

Builds the full evaluation environment of §6 once — TPC-H and TPC-DS
databases, sampled statistics, optimizers — and manufactures per-query
artifacts (ESS, plan diagram, bouquet, baselines) with laptop-scale grid
resolutions.  Each bouquet is compiled by :func:`repro.api.compile_bouquet`,
so every figure divides by the exact PIC a served compile plans on.  Used
by the benchmark harness, the examples, and the integration tests so
every consumer sees the same world.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from ..api import _COST_MODELS, BouquetConfig, Catalog, compile_bouquet
from ..catalog.tpcds import tpcds_generator_spec, tpcds_schema
from ..catalog.tpch import tpch_generator_spec, tpch_schema
from ..core.bouquet import PlanBouquet
from ..core.simulation import basic_cost_field
from ..datagen.database import Database
from ..ess.diagram import PlanDiagram
from ..ess.space import SelectivitySpace
from ..obs.tracer import MemorySink, Tracer
from ..obs.summary import summarize_trace
from ..optimizer.cost_model import POSTGRES_COST_MODEL, CostModel
from ..optimizer.optimizer import Optimizer
from ..query.workload import WorkloadQuery, full_workload
from ..robustness.metrics import optimized_field
from ..robustness.nat import NativeOptimizerStrategy
from ..robustness.seer import SeerStrategy

#: Grid points per dimension, by ESS dimensionality.  Plan cost fields
#: are evaluated in one vectorized pass, so full-ESS sweeps stay cheap
#: even at tens of thousands of grid cells; the diagram itself is one
#: slab DP over the whole grid.
DEFAULT_RESOLUTIONS = {1: 100, 2: 30, 3: 16, 4: 9, 5: 7}

#: The ``BouquetConfig.cost_model`` name of each cost model a Lab may run.
_CONFIG_NAMES = {model: name for name, model in _COST_MODELS.items()}


@dataclass
class QueryLab:
    """All per-query artifacts for one workload entry."""

    workload: WorkloadQuery
    bouquet: PlanBouquet

    @property
    def name(self) -> str:
        return self.workload.name

    @property
    def space(self) -> SelectivitySpace:
        return self.bouquet.space

    @property
    def diagram(self) -> PlanDiagram:
        return self.bouquet.diagram

    @cached_property
    def nat(self) -> NativeOptimizerStrategy:  # costs every POSP plan over the grid
        return NativeOptimizerStrategy(self.diagram)

    @cached_property
    def seer(self) -> SeerStrategy:
        return SeerStrategy(self.diagram)

    @cached_property
    def bouquet_cost_field(self) -> np.ndarray:
        """Basic-bouquet total cost at every qa (cached)."""
        return basic_cost_field(self.bouquet)

    @cached_property
    def optimized_cost_field(self) -> np.ndarray:
        """Optimized-bouquet total cost at every qa (cached).

        Computed by the vectorized sweep engine (:mod:`repro.sweep`);
        the grid-shaped counterpart of :attr:`bouquet_cost_field` for
        the Figure 13 driver.
        """
        return optimized_field(self.bouquet)

    @property
    def pic(self) -> np.ndarray:
        return self.diagram.costs


class Lab:
    """The full evaluation environment."""

    def __init__(
        self,
        tpch_scale: float = 0.003,
        tpcds_scale: float = 0.003,
        stats_sample: int = 2000,
        seed: int = 42,
        cost_model: CostModel = POSTGRES_COST_MODEL,
        lambda_: float = 0.2,
        ratio: float = 2.0,
        resolutions: Optional[Dict[int, int]] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.lambda_ = lambda_
        self.ratio = ratio
        self.resolutions = dict(DEFAULT_RESOLUTIONS)
        if resolutions:
            self.resolutions.update(resolutions)
        #: Lab-wide telemetry: an in-memory tracer by default so benches
        #: can emit a trace summary next to their results for free.
        self.tracer = tracer if tracer is not None else Tracer(MemorySink())
        self.h_schema = tpch_schema(tpch_scale)
        self.ds_schema = tpcds_schema(tpcds_scale)
        self.h_db = Database.generate(self.h_schema, tpch_generator_spec(tpch_scale), seed=seed)
        self.ds_db = Database.generate(self.ds_schema, tpcds_generator_spec(tpcds_scale), seed=seed + 1)
        self.h_stats = self.h_db.build_statistics(sample_size=stats_sample, seed=seed)
        self.ds_stats = self.ds_db.build_statistics(sample_size=stats_sample, seed=seed)
        self.h_optimizer = Optimizer(self.h_schema, self.h_stats, cost_model, tracer=self.tracer)
        self.ds_optimizer = Optimizer(self.ds_schema, self.ds_stats, cost_model, tracer=self.tracer)
        self.workload = full_workload(self.h_schema, self.ds_schema)
        self._labs: Dict[str, QueryLab] = {}

    # ------------------------------------------------------------------

    def _env_for(self, name: str) -> Tuple[Optimizer, Database]:
        if "DS" in name:
            return self.ds_optimizer, self.ds_db
        return self.h_optimizer, self.h_db

    def resolution_for(self, dimensionality: int) -> int:
        return self.resolutions.get(dimensionality, 5)

    def build(self, name: str, resolution: Optional[int] = None) -> QueryLab:
        """Build (and cache) the per-query lab for one workload entry."""
        cached = self._labs.get(name)
        if cached is not None and resolution is None:
            return cached
        workload = self.workload[name]
        optimizer, database = self._env_for(name)
        dims = workload.dimensions()
        res = resolution or self.resolution_for(len(dims))
        config = BouquetConfig(
            ratio=self.ratio, lambda_=self.lambda_, resolution=res,
            cost_model=_CONFIG_NAMES[optimizer.cost_model],
        )
        catalog = Catalog(optimizer.schema, optimizer.statistics, database)
        with self.tracer.span("lab.build", query=name, resolution=res):
            bouquet = compile_bouquet(
                workload.query, catalog, config=config, dimensions=dims,
                optimizer=optimizer, tracer=self.tracer,
            ).bouquet
        lab = QueryLab(workload, bouquet)
        if resolution is None:
            self._labs[name] = lab
        return lab

    def trace_summary(self) -> str:
        """Condense the lab tracer's records + metrics into a text report.

        Works only with a memory-sinked tracer (the default); other sinks
        yield a metrics-only summary.
        """
        records = list(getattr(self.tracer.sink, "records", ()))
        snapshot = self.tracer.snapshot()
        for name, value in sorted(snapshot["counters"].items()):
            records.append({"type": "counter", "name": name, "value": value})
        for name, stats in sorted(snapshot["timings"].items()):
            records.append({"type": "timing", "name": name, **stats})
        return summarize_trace(records).describe()
