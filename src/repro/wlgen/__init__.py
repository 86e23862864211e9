"""Workload generation & MSO fuzzing: random queries, per-query ESS axes.

Two layers, plus the dimensioning they share with :mod:`repro.ess`:

- :mod:`~repro.wlgen.generator` — seeded random acyclic SPJ+aggregate
  query sampling over the catalog's FK graph;
- :mod:`~repro.wlgen.campaign` — sharded fuzzing campaigns validating
  the measured MSO of every generated query against the 4(1+λ)ρ bound;
- ``dimension_query`` / ``DimensioningResult`` (re-exported from
  :mod:`repro.ess.dimensioning`) — per-query ESS dimension discovery
  via error-sensitivity ranking.
"""

from .campaign import (
    CAMPAIGN_RESOLUTIONS,
    CampaignConfig,
    CampaignEnv,
    CampaignReport,
    QueryOutcome,
    build_env,
    run_campaign,
    run_query,
)
from ..ess.dimensioning import DimensioningResult, dimension_query
from .generator import GeneratedQuery, GeneratorConfig, QueryGenerator

__all__ = [
    "CAMPAIGN_RESOLUTIONS",
    "CampaignConfig",
    "CampaignEnv",
    "CampaignReport",
    "DimensioningResult",
    "GeneratedQuery",
    "GeneratorConfig",
    "QueryGenerator",
    "QueryOutcome",
    "build_env",
    "dimension_query",
    "run_campaign",
    "run_query",
]
