"""Theoretical robustness bounds (§3).

* Theorem 1 — 1D MSO bound ``r²/(r−1)`` for geometric ratio ``r``;
  minimized at ``r = 2`` where the bound is 4.
* Theorem 2 — no deterministic online algorithm beats 4 in 1D; we expose
  an adversarial *witness* that, for any claimed budget sequence, finds
  the actual location maximizing its sub-optimality.
* Theorem 3 — multi-D bound ``ρ · r²/(r−1)``; with anorexic reduction the
  guarantee becomes ``(1+λ) · ρ_anorexic · r²/(r−1)`` (§3.3).
* §3.4 — bounded cost-modeling error δ inflates any MSO guarantee by at
  most ``(1+δ)²``.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from ..exceptions import BouquetError


def mso_bound_1d(ratio: float = 2.0) -> float:
    """Theorem 1: MSO ≤ r² / (r − 1)."""
    if ratio <= 1.0:
        raise BouquetError("ratio must exceed 1")
    return ratio * ratio / (ratio - 1.0)


def mso_bound_multid(rho: int, ratio: float = 2.0, lambda_: float = 0.0) -> float:
    """Theorem 3 (+ §3.3 anorexic adjustment): MSO ≤ (1+λ)·ρ·r²/(r−1)."""
    if rho < 1:
        raise BouquetError("plan density rho must be at least 1")
    if lambda_ < 0:
        raise BouquetError("lambda must be non-negative")
    return (1.0 + lambda_) * rho * mso_bound_1d(ratio)


def mso_bound_with_model_error(base_mso: float, delta: float) -> float:
    """§3.4: bounded modeling error δ inflates MSO by at most (1+δ)²."""
    if delta < 0:
        raise BouquetError("delta must be non-negative")
    return base_mso * (1.0 + delta) ** 2


def geometric_budgets(cmin: float, cmax: float, ratio: float) -> List[float]:
    """The budget sequence a deterministic doubling-style algorithm uses."""
    from .contours import contour_costs

    return contour_costs(cmin, cmax, ratio)


def worst_case_suboptimality(budgets: Sequence[float]) -> float:
    """Adversarial witness for any deterministic budget sequence.

    Against budgets ``a_1 < a_2 < ... < a_m``, the adversary places the
    actual location just *beyond* the reach of ``a_{k-1}``, forcing the
    algorithm to spend ``a_1 + ... + a_k`` while an oracle pays only
    ``a_{k-1}`` (+ε).  The returned value is the supremum over k — for a
    geometric sequence with ratio r this approaches ``r²/(r−1)``, and no
    sequence does better than 4 (Theorem 2).
    """
    budgets = list(budgets)
    if any(b <= 0 for b in budgets):
        raise BouquetError("budgets must be positive")
    if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise BouquetError("budget sequence must be strictly increasing")
    worst = 1.0
    cumulative = 0.0
    for k, budget in enumerate(budgets):
        cumulative += budget
        oracle = budgets[k - 1] if k >= 1 else budgets[0]
        worst = max(worst, cumulative / oracle)
    return worst


def best_achievable_mso(num_steps: int, span: float) -> Tuple[float, float]:
    """Search the geometric family for the minimum worst-case
    sub-optimality over a cost range of ``span = Cmax/Cmin``.

    Returns ``(best_ratio, best_mso)``.  Demonstrates empirically that the
    optimum sits at r = 2 with MSO → 4 (Theorems 1-2).
    """
    if span <= 1:
        raise BouquetError("span must exceed 1")
    best_ratio, best_value = None, math.inf
    ratio = 1.05
    while ratio <= 16.0:
        budgets = geometric_budgets(1.0, span, ratio)
        if len(budgets) >= 2:
            value = worst_case_suboptimality(budgets)
            if value < best_value:
                best_ratio, best_value = ratio, value
        ratio *= 1.01
    if best_ratio is None:
        raise BouquetError("no valid ratio found")
    return best_ratio, best_value
