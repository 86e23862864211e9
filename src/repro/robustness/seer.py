"""SEER — robust plan selection via plan-diagram reduction (Harish et al.,
PVLDB 2008), the comparison baseline of §6.

SEER replaces the optimizer's plan at each estimate location with a plan
from a reduced set, under a *global safety* condition: the replacement
must be within ``(1 + λ)`` of the replaced plan's own cost at **every**
ESS location, so it can never materially worsen the native choice
anywhere (which also caps SEER's MaxHarm at λ).  Its comparative
yardstick is therefore ``P_oe`` — the optimal plan at the estimate — not
``P_oa``, which is why SEER barely moves MSO/ASO in high-dimensional
spaces (§6.2-6.3).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..ess.diagram import PlanDiagram
from ..ess.space import Location
from ..exceptions import EssError
from .metrics import StrategyProfile, aso, mso, subopt_worst_field


class SeerStrategy:
    """Globally-safe replacement strategy over a plan diagram."""

    def __init__(self, diagram: PlanDiagram, lambda_: float = 0.2):
        if diagram.cache is None:
            raise EssError("diagram lacks a cost cache")
        if lambda_ < 0:
            raise EssError("lambda must be non-negative")
        self.diagram = diagram
        self.lambda_ = lambda_
        self.replacement: Dict[int, int] = self._compute_replacements()
        self._profile = self._build_profile()

    # ------------------------------------------------------------------

    def _compute_replacements(self) -> Dict[int, int]:
        """Greedy global-safety reduction.

        Candidates are ordered by diagram occupancy (plans covering more
        of the ESS first, as in the original heuristic); each plan is
        mapped to the most-occupying candidate that swallows it safely.
        """
        cache = self.diagram.cache
        occupancy = self.diagram.occupancy()
        posp = sorted(occupancy, key=lambda p: (-occupancy[p], p))
        threshold = 1.0 + self.lambda_
        fields = cache.cost_arrays(posp)
        replacement: Dict[int, int] = {}
        for victim in posp:
            chosen = victim
            for candidate in posp:
                if candidate == victim:
                    continue
                # Global safety: candidate within (1+λ) of victim everywhere.
                if np.all(fields[candidate] <= threshold * fields[victim] + 1e-12):
                    chosen = candidate
                    break
            replacement[victim] = chosen
        # Collapse chains (a -> b, b -> c  =>  a -> c).
        for victim in list(replacement):
            seen = {victim}
            target = replacement[victim]
            while replacement.get(target, target) != target and target not in seen:
                seen.add(target)
                target = replacement[target]
            replacement[victim] = target
        return replacement

    def _build_profile(self) -> StrategyProfile:
        cache = self.diagram.cache
        occupancy: Dict[int, int] = {}
        for plan_id, count in self.diagram.occupancy().items():
            target = self.replacement.get(plan_id, plan_id)
            occupancy[target] = occupancy.get(target, 0) + count
        return StrategyProfile(
            cost_fields=cache.cost_arrays(occupancy),
            occupancy=occupancy,
            pic=self.diagram.costs,
        )

    # ------------------------------------------------------------------

    def plan_for_estimate(self, qe: Location) -> int:
        native = self.diagram.plan_at(qe)
        return self.replacement.get(native, native)

    def cost(self, qe: Location, qa: Location) -> float:
        return self.diagram.cache.cost(self.plan_for_estimate(qe), qa)

    def subopt_worst(self) -> np.ndarray:
        return subopt_worst_field(self._profile)

    def mso(self) -> float:
        return mso(self._profile)

    def aso(self) -> float:
        return aso(self._profile)

    @property
    def plan_cardinality(self) -> int:
        """Distinct plans SEER may execute after replacement."""
        return len({self.replacement.get(p, p) for p in self.diagram.posp_plan_ids})
