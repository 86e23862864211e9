"""Deployment advice: which processing regime fits a query (§8).

The paper closes by noting the bouquet is meant to *co-exist* with the
classical setup, "leaving it to the user or DBA to make the choice of
which system to use for a specific query instance", and §8 enumerates
the factors: estimation difficulty, read-only vs update and latency
sensitivity.  :func:`recommend_processing_mode` operationalizes those
rules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from ..catalog.statistics import DatabaseStatistics
from ..ess.dimensioning import Uncertainty, classify_predicate
from ..query.query import Query


class ProcessingMode(enum.Enum):
    """The three regimes §8 weighs against each other."""

    NATIVE = "native"  # classical single-plan optimization
    REOPTIMIZE = "reoptimize"  # POP/Rio-style mid-query re-optimization
    BOUQUET = "bouquet"  # plan-bouquet discovery


@dataclass
class Recommendation:
    """The advised regime plus the §8 factors that produced it."""

    mode: ProcessingMode
    rationale: List[str]
    max_uncertainty: Uncertainty

    def describe(self) -> str:
        lines = [f"recommended mode: {self.mode.value}"]
        lines.extend(f"  - {reason}" for reason in self.rationale)
        return "\n".join(lines)


def recommend_processing_mode(
    query: Query,
    statistics: Optional[DatabaseStatistics],
    read_only: bool = True,
    latency_sensitive: bool = False,
) -> Recommendation:
    """Apply §8's decision factors to one query instance.

    * update queries and latency-sensitive applications are poorly served
      by any plan-switching technique -> NATIVE;
    * when estimation errors are a-priori known to be small,
      re-optimization "is likely to converge much quicker than the
      bouquet algorithm" -> REOPTIMIZE;
    * difficult estimation environments (high-uncertainty predicates)
      are the bouquet's home turf -> BOUQUET.
    """
    rationale: List[str] = []
    levels = [
        classify_predicate(query, pid, statistics) for pid in query.predicate_ids
    ]
    max_uncertainty = max(levels) if levels else Uncertainty.NONE

    if not read_only:
        rationale.append(
            "update query: multiple partial executions would need rollback "
            "of aborted work (§8) — plan switching not recommended"
        )
        return Recommendation(ProcessingMode.NATIVE, rationale, max_uncertainty)
    if latency_sensitive:
        rationale.append(
            "latency-sensitive: plan-switching defers first results until "
            "the final execution (§8)"
        )
        return Recommendation(ProcessingMode.NATIVE, rationale, max_uncertainty)

    if max_uncertainty <= Uncertainty.LOW:
        rationale.append(
            "every predicate is accurately estimable from the available "
            "statistics; the native optimizer's choice is already reliable"
        )
        return Recommendation(ProcessingMode.NATIVE, rationale, max_uncertainty)

    if max_uncertainty <= Uncertainty.MEDIUM:
        rationale.append(
            "estimation errors are expected to be small: estimate-seeded "
            "re-optimization converges quicker than origin-seeded bouquet "
            "discovery (§8)"
        )
        return Recommendation(ProcessingMode.REOPTIMIZE, rationale, max_uncertainty)

    rationale.append(
        "difficult estimation environment (high-uncertainty predicates): "
        "the bouquet's guaranteed MSO applies where estimates cannot be "
        "trusted at all"
    )
    return Recommendation(ProcessingMode.BOUQUET, rationale, max_uncertainty)
