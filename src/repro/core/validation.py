"""Bouquet validation: empirically check the guarantees a bouquet makes.

Downstream users deploying a compiled bouquet can run
:func:`validate_bouquet` to verify, on the compile-time cost model:

* **PCM** — the diagram's optimal cost never falls along an axis
  (:meth:`~repro.ess.diagram.PlanDiagram.check_monotone`), the plan
  cost monotonicity every contour argument of §2 rests on;
* **coverage** — every contour's frontier dominates its region, so the
  basic algorithm terminates everywhere;
* **the MSO guarantee** — the simulated bouquet cost at every (or a
  sampled subset of) grid location stays within the theoretical bound;
* **budget sanity** — contour budgets form the expected λ-inflated
  geometric progression;
* **anorexic conformance** — each contour plan is within (1+λ) of
  optimal at every location it owns.

The report is machine-readable and prints compactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..exceptions import BouquetError
from .bouquet import PlanBouquet
from .simulation import basic_cost_field, sample_locations, simulate_at


@dataclass
class ValidationIssue:
    """One violated expectation."""

    kind: str
    message: str

    def __str__(self):
        return f"[{self.kind}] {self.message}"


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_bouquet`."""

    issues: List[ValidationIssue] = field(default_factory=list)
    checked_locations: int = 0
    measured_mso: float = 0.0
    bound: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.issues

    def describe(self) -> str:
        status = "OK" if self.ok else f"{len(self.issues)} issue(s)"
        lines = [
            f"bouquet validation: {status}; "
            f"measured MSO {self.measured_mso:.2f} vs bound {self.bound:.2f} "
            f"over {self.checked_locations} locations"
        ]
        lines.extend(str(issue) for issue in self.issues)
        return "\n".join(lines)


def validate_bouquet(
    bouquet: PlanBouquet,
    sample: Optional[int] = None,
    check_optimized: bool = False,
    seed: int = 0,
) -> ValidationReport:
    """Validate a compiled bouquet against its own guarantees.

    ``sample`` limits the per-location simulation to that many grid
    points (default: the full grid for the basic algorithm).  With
    ``check_optimized`` the optimized runtime is also exercised on the
    sampled locations.
    """
    report = ValidationReport(bound=bouquet.mso_bound)
    issues = report.issues
    space = bouquet.space
    diagram = bouquet.diagram

    # --- plan cost monotonicity ------------------------------------------
    if not diagram.check_monotone():
        issues.append(
            ValidationIssue(
                "pcm", "the diagram's optimal cost falls along an axis (PCM, §2)"
            )
        )

    # --- budget progression ---------------------------------------------
    inflation = 1.0 + bouquet.lambda_
    for contour, budget in zip(bouquet.contours, bouquet.budgets):
        if abs(budget - inflation * contour.cost) > 1e-6 * budget:
            issues.append(
                ValidationIssue(
                    "budget",
                    f"IC{contour.index} budget {budget:.4g} != "
                    f"(1+λ)·{contour.cost:.4g}",
                )
            )
    costs = [c.cost for c in bouquet.contours]
    for a, b in zip(costs, costs[1:]):
        if not (abs(b / a - bouquet.ratio) < 1e-6):
            issues.append(
                ValidationIssue(
                    "budget", f"contour ratio {b / a:.4f} != r={bouquet.ratio:g}"
                )
            )

    # --- coverage ---------------------------------------------------------
    # Every grid location must be dominated by a frontier location of the
    # first contour whose cost reaches it.
    final = bouquet.contours[-1]
    corner = space.corner
    if not any(space.dominates(loc, corner) for loc in final.locations):
        issues.append(
            ValidationIssue(
                "coverage",
                "final contour does not dominate the ESS corner; the basic "
                "algorithm may not terminate",
            )
        )

    # --- anorexic conformance ----------------------------------------------
    cache = bouquet.cost_cache
    threshold = (1.0 + bouquet.lambda_) * (1.0 + 1e-9)
    for contour in bouquet.contours:
        for location, plan_id in contour.plan_at.items():
            actual = cache.cost(plan_id, location)
            optimal = diagram.cost_at(location)
            if actual > threshold * optimal:
                issues.append(
                    ValidationIssue(
                        "anorexic",
                        f"plan P{plan_id} at {location} costs "
                        f"{actual / optimal:.3f}x optimal (> 1+λ)",
                    )
                )

    # --- MSO guarantee ------------------------------------------------------
    try:
        field_costs = basic_cost_field(bouquet)
    except BouquetError as exc:
        issues.append(
            ValidationIssue("coverage", f"basic algorithm cannot terminate: {exc}")
        )
    else:
        subopt = field_costs / diagram.costs
        report.measured_mso = float(subopt.max())
        report.checked_locations = int(subopt.size)
        if report.measured_mso > bouquet.mso_bound * (1 + 1e-6):
            worst = int(subopt.argmax())
            issues.append(
                ValidationIssue(
                    "mso",
                    f"basic bouquet exceeds its bound: {report.measured_mso:.2f} "
                    f"> {bouquet.mso_bound:.2f} (flat index {worst})",
                )
            )

    # --- optimized runtime (sampled) -----------------------------------------
    if check_optimized:
        locations = sample_locations(space, sample or 16, seed=seed)
        for location in locations:
            try:
                result = simulate_at(bouquet, location, mode="optimized")
            except BouquetError as exc:
                issues.append(
                    ValidationIssue("optimized", f"failed at {location}: {exc}")
                )
                continue
            limit = bouquet.mso_bound * diagram.cost_at(location) * (1 + 1e-6)
            if result.total_cost > limit:
                issues.append(
                    ValidationIssue(
                        "optimized",
                        f"optimized run at {location} exceeds the bound "
                        f"({result.total_cost:.4g} > {limit:.4g})",
                    )
                )
    return report
