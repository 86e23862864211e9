"""Budget accounting for contour-crossing strategies.

The :class:`BudgetLedger` is the shared account every crossing strategy
charges its executions to.  It keeps two currencies separate:

* **work** — total cost charged across all workers (what a single core
  would have to grind through, and what the paper's sequential MSO
  bound ``rho * (1+lambda) * r^2/(r-1)`` is stated over);
* **elapsed** — cost-time on the critical path.  Under concurrent
  crossing the contour's elapsed is the winner's completion cost (or
  the full budget when nobody completed), never ``rho`` budgets — this
  is the quantity the 1D bound ``(1+lambda) * r^2/(r-1)`` applies to.

Every charge is validated: no plan may be charged beyond the contour
budget (the doubling guarantee rests on that), and a contour's work may
never exceed ``plans x budget``.  The ledger's suboptimality accessors
feed :func:`repro.robustness.metrics.crossing_mso_bound`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..exceptions import BouquetError

#: Tolerance for floating-point budget comparisons.
_EPS = 1e-6


@dataclass
class PlanCharge:
    """Cumulative account of one plan's executions on one contour."""

    plan_id: int
    work: float = 0.0
    completed: bool = False
    cancelled: bool = False


@dataclass
class ContourLedger:
    """Per-contour account: budget, per-plan charges, and elapsed cost-time."""

    index: int
    budget: float
    charges: Dict[int, PlanCharge] = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def work(self) -> float:
        return sum(c.work for c in self.charges.values())

    @property
    def executions(self) -> int:
        return len(self.charges)

    def charge(
        self,
        plan_id: int,
        amount: float,
        completed: bool = False,
        cancelled: bool = False,
    ) -> PlanCharge:
        """Charge ``amount`` cost units to ``plan_id`` on this contour."""
        if amount < 0:
            raise BouquetError("ledger: cannot charge negative cost")
        entry = self.charges.get(plan_id)
        if entry is None:
            entry = PlanCharge(plan_id)
            self.charges[plan_id] = entry
        entry.work += amount
        entry.completed = entry.completed or completed
        entry.cancelled = entry.cancelled or cancelled
        if entry.work > self.budget * (1.0 + _EPS):
            raise BouquetError(
                f"ledger: plan {plan_id} overdrew contour {self.index} "
                f"({entry.work:.4g} > budget {self.budget:.4g})"
            )
        return entry

    def set_elapsed(self, elapsed: float) -> None:
        """Record the contour's critical-path cost-time."""
        if elapsed < -_EPS:
            raise BouquetError("ledger: elapsed cost-time cannot be negative")
        # Float noise in (-_EPS, 0) passes the guard; clamp it to exactly
        # zero so total_elapsed and elapsed_suboptimality never go negative.
        elapsed = max(float(elapsed), 0.0)
        if elapsed > self.work * (1.0 + _EPS):
            raise BouquetError(
                f"ledger: contour {self.index} elapsed {elapsed:.4g} exceeds "
                f"its total work {self.work:.4g}"
            )
        self.elapsed = elapsed


class BudgetLedger:
    """Cross-contour budget account for one bouquet execution.

    Created by the runner with the bouquet's bound parameters so that
    suboptimality ratios and their analytical ceilings are computed in
    one place.
    """

    def __init__(self, ratio: float, lambda_: float, rho: int):
        self.ratio = float(ratio)
        self.lambda_ = float(lambda_)
        self.rho = int(rho)
        self.contours: List[ContourLedger] = []

    def open_contour(self, index: int, budget: float) -> ContourLedger:
        if budget <= 0:
            raise BouquetError("ledger: contour budget must be positive")
        account = ContourLedger(index=index, budget=budget)
        self.contours.append(account)
        return account

    # -- totals ----------------------------------------------------------

    @property
    def total_work(self) -> float:
        return sum(c.work for c in self.contours)

    @property
    def total_elapsed(self) -> float:
        return sum(c.elapsed for c in self.contours)

    @property
    def cancellations(self) -> int:
        return sum(
            1
            for contour in self.contours
            for charge in contour.charges.values()
            if charge.cancelled
        )

    # -- MSO math --------------------------------------------------------

    def work_suboptimality(self, optimal_cost: float) -> float:
        """Total work over the optimal cost (the sequential MSO currency)."""
        if optimal_cost <= 0:
            raise BouquetError("ledger: optimal cost must be positive")
        return self.total_work / optimal_cost

    def elapsed_suboptimality(self, optimal_cost: float) -> float:
        """Critical-path cost-time over the optimal cost (the concurrent
        MSO currency — the one the 4*(1+lambda) bound applies to)."""
        if optimal_cost <= 0:
            raise BouquetError("ledger: optimal cost must be positive")
        return self.total_elapsed / optimal_cost

    def analytical_bound(self, concurrent: bool = False) -> float:
        """The matching a-priori ceiling (see
        :func:`repro.robustness.metrics.crossing_mso_bound`)."""
        from ..robustness.metrics import crossing_mso_bound

        return crossing_mso_bound(
            self.ratio, self.lambda_, self.rho, concurrent=concurrent
        )

    def assert_within_bound(
        self, optimal_cost: float, concurrent: bool = False
    ) -> None:
        """Raise if this execution escaped its analytical guarantee."""
        observed = (
            self.elapsed_suboptimality(optimal_cost)
            if concurrent
            else self.work_suboptimality(optimal_cost)
        )
        bound = self.analytical_bound(concurrent=concurrent)
        if observed > bound * (1.0 + _EPS):
            raise BouquetError(
                f"ledger: suboptimality {observed:.4g} exceeds the analytical "
                f"bound {bound:.4g} (concurrent={concurrent})"
            )

    def describe(self) -> str:
        lines = [
            f"BudgetLedger r={self.ratio:g} lambda={self.lambda_:g} "
            f"rho={self.rho}: work={self.total_work:.4g} "
            f"elapsed={self.total_elapsed:.4g}"
        ]
        for contour in self.contours:
            plans = ", ".join(
                f"P{c.plan_id}:{c.work:.3g}"
                + ("*" if c.completed else "")
                + ("x" if c.cancelled else "")
                for c in contour.charges.values()
            )
            lines.append(
                f"  IC{contour.index}: budget={contour.budget:.4g} "
                f"work={contour.work:.4g} elapsed={contour.elapsed:.4g} "
                f"[{plans}]"
            )
        return "\n".join(lines)


__all__ = ["BudgetLedger", "ContourLedger", "PlanCharge"]
