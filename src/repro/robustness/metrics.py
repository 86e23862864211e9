"""Robustness metrics: SubOpt, MSO, ASO, MaxHarm (§2).

All metrics are defined over the discretized ESS grid under the paper's
uniformity assumption (estimates and actuals equally likely everywhere).

For single-plan strategies (NAT, SEER) the key observation is that

* ``SubOptWorst(qa) = max_P c_P(qa) / c_opt(qa)`` over the plans the
  strategy can choose (each is chosen at *some* qe), and
* ASO aggregates ``Σ_qe c_{P(qe)}(qa)`` = ``Σ_P n_P · c_P(qa)`` where
  ``n_P`` counts the locations where P is chosen,

so both reduce to per-plan cost fields — no quadratic (qe, qa) sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from ..exceptions import EssError


@dataclass
class StrategyProfile:
    """Everything needed to score one execution strategy over an ESS.

    ``cost_fields`` maps plan id -> that plan's cost at every grid
    location; ``occupancy`` maps plan id -> number of estimate locations
    choosing it.  For bouquet-style strategies (no per-qe plan choice),
    use :func:`bouquet_profile` instead.
    """

    cost_fields: Mapping[int, np.ndarray]
    occupancy: Mapping[int, int]
    pic: np.ndarray

    def __post_init__(self):
        if not self.cost_fields:
            raise EssError("strategy has no plans")
        for array in self.cost_fields.values():
            if array.shape != self.pic.shape:
                raise EssError("cost field shape mismatch")


def subopt_worst_field(profile: StrategyProfile) -> np.ndarray:
    """SubOptWorst(qa) for a single-plan strategy, per grid location."""
    stacked = np.stack([profile.cost_fields[p] for p in sorted(profile.cost_fields)])
    return stacked.max(axis=0) / profile.pic


def mso(profile: StrategyProfile) -> float:
    """Maximum sub-optimality over the whole ESS (Equation 3)."""
    return float(subopt_worst_field(profile).max())


def aso(profile: StrategyProfile) -> float:
    """Average sub-optimality over all (qe, qa) pairs (Equation 4)."""
    total_locations = sum(profile.occupancy.values())
    if total_locations <= 0:
        raise EssError("strategy occupancy is empty")
    weighted = np.zeros_like(profile.pic)
    for plan_id, count in profile.occupancy.items():
        weighted += count * profile.cost_fields[plan_id]
    per_qa = weighted / (total_locations * profile.pic)
    return float(per_qa.mean())


# ---------------------------------------------------------------------------
# Bouquet-side metrics (no qe dependence: SubOpt(*, qa))
# ---------------------------------------------------------------------------


def optimized_field(bouquet) -> np.ndarray:
    """Grid-shaped optimized-bouquet cost field via the sweep engine.

    The ndarray counterpart of
    :func:`repro.core.simulation.optimized_cost_field` — feed it straight
    into :func:`bouquet_mso` / :func:`bouquet_aso` / :func:`max_harm`.
    Results are memoized on the bouquet, so computing several metrics
    costs one sweep.
    """
    from ..sweep import SweepEngine

    return SweepEngine(bouquet).cost_field()


def bouquet_mso(bouquet_cost_field: np.ndarray, pic: np.ndarray) -> float:
    return float((bouquet_cost_field / pic).max())


def bouquet_aso(bouquet_cost_field: np.ndarray, pic: np.ndarray) -> float:
    return float((bouquet_cost_field / pic).mean())


def max_harm(
    bouquet_cost_field: np.ndarray,
    pic: np.ndarray,
    nat_subopt_worst: np.ndarray,
) -> float:
    """MaxHarm (Equation 5): how much worse the bouquet can be, per
    location, than the native optimizer's *worst* case there.

    Positive values mean the bouquet harmed some locations."""
    ratio = (bouquet_cost_field / pic) / nat_subopt_worst
    return float(ratio.max() - 1.0)


def harm_fraction(
    bouquet_cost_field: np.ndarray,
    pic: np.ndarray,
    nat_subopt_worst: np.ndarray,
) -> float:
    """Fraction of ESS locations where the bouquet is harmful (§6.5)."""
    ratio = (bouquet_cost_field / pic) / nat_subopt_worst
    return float((ratio > 1.0).mean())


def robustness_enhancement(
    bouquet_cost_field: np.ndarray,
    pic: np.ndarray,
    nat_subopt_worst: np.ndarray,
) -> np.ndarray:
    """Per-location enhancement SubOptWorst(qa) / SubOpt(*, qa) (§6.4)."""
    return nat_subopt_worst / (bouquet_cost_field / pic)


#: Bucket edges of :func:`enhancement_histogram`, one per decade.
DECADE_EDGES = (1.0, 10.0, 100.0, 1000.0, 10000.0)


def enhancement_histogram(enhancement: np.ndarray) -> Dict[str, float]:
    """Percentage of locations per order-of-magnitude improvement bucket
    (the Figure 16 distribution)."""
    flat = enhancement.ravel()
    buckets: Dict[str, float] = {}
    below = float((flat < DECADE_EDGES[0]).mean()) * 100.0
    buckets[f"< {DECADE_EDGES[0]:g}x"] = below
    for lo, hi in zip(DECADE_EDGES, DECADE_EDGES[1:]):
        frac = float(((flat >= lo) & (flat < hi)).mean()) * 100.0
        buckets[f"[{lo:g}x, {hi:g}x)"] = frac
    top = DECADE_EDGES[-1]
    buckets[f">= {top:g}x"] = float((flat >= top).mean()) * 100.0
    return buckets
