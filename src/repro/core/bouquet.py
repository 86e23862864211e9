"""Compile-time bouquet identification (§4).

:func:`identify_bouquet` runs the full compile-time pipeline:

1. build (or accept) a plan diagram over the ESS,
2. slice the PIC into geometric isocost contours,
3. anorexic-reduce the plans residing on the contour frontiers,
4. inflate the contour budgets by ``(1 + λ)`` to pay for the reduction,

producing a :class:`PlanBouquet` — everything the run-time phase needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Tuple, TypeVar

from ..ess.diagram import PlanCostCache, PlanDiagram
from ..ess.reduction import DEFAULT_LAMBDA, anorexic_reduce
from ..ess.space import Location, SelectivitySpace
from ..exceptions import BouquetError
from ..optimizer.optimizer import PlanRegistry
from .contours import (
    OPTIMAL_RATIO,
    AxisTables,
    Contour,
    ContourTables,
    build_contours,
    densest_contour_plans,
)

if TYPE_CHECKING:
    from ..executor.engine import BoundPlan
    from ..optimizer.cost_model import CostModel
    from .runtime import KnownSelectivities


T = TypeVar("T")


@dataclass
class Measured:
    """Facts about one bouquet on one dataset, each measured once:

    * ``subtree_rows`` — output rows of the error-free subtrees, by plan
      signature, as the executor's §5.2 learning executes them;
    * ``known`` — the index-probed start
      (``RealExecutionService.known_selectivities``) and the cost model
      its probe cost was priced in, once taken;
    * ``bound`` — the plans run so far, bound to the data
      (``ExecutionEngine.bind``), with the ``Database`` and cost model
      they were bound on (:meth:`plans`).
    """

    fingerprint: str
    subtree_rows: Dict[str, float] = field(default_factory=dict)
    known: Optional[Tuple["CostModel", "KnownSelectivities"]] = None
    bound: Optional[Tuple[object, "CostModel", Dict[int, "BoundPlan"]]] = None

    def plans(self, database, cost_model: "CostModel") -> Dict[int, "BoundPlan"]:
        """The bound plans by plan id, for ``database`` under
        ``cost_model``: a binding holds the database's own arrays and
        index handles, so another database object or cost model starts
        them over."""
        bound = self.bound
        if bound is None or bound[0] is not database or bound[1] is not cost_model:
            bound = self.bound = (database, cost_model, {})
        return bound[2]


@dataclass
class PlanBouquet:
    """The compile-time artifact handed to the run-time phase.

    Attributes
    ----------
    contours:
        IC steps in increasing cost order, each with its (reduced) plans.
    budgets:
        Per-contour execution budgets: ``(1 + λ) * IC_k``.
    plan_ids:
        The bouquet B = union of the contour plan sets.
    """

    space: SelectivitySpace
    diagram: PlanDiagram
    registry: PlanRegistry
    contours: List[Contour]
    budgets: List[float]
    plan_ids: List[int]
    lambda_: float
    ratio: float

    @property
    def cardinality(self) -> int:
        """|B| — the bouquet size (Figure 18's BOU cardinality)."""
        return len(self.plan_ids)

    @property
    def rho(self) -> int:
        """ρ — plan count of the densest contour: counted on first use,
        kept while the bouquet lives (every served response quotes its
        bound), and never serialised."""
        rho = getattr(self, "_rho", None)
        if rho is None:
            rho = self._rho = densest_contour_plans(self.contours)
        return rho

    @property
    def mso_bound(self) -> float:
        """Guaranteed MSO: ρ · (1+λ) · r²/(r−1) (Theorem 3 + §3.3)."""
        r = self.ratio
        return self.rho * (1.0 + self.lambda_) * r * r / (r - 1.0)

    @property
    def cost_cache(self) -> PlanCostCache:
        cache = self.diagram.cache
        if cache is None:
            raise BouquetError("bouquet diagram lacks a cost cache")
        return cache

    def measured_on(self, data_fingerprint: str) -> "Measured":
        """What has been measured of this bouquet on one dataset: kept
        while the bouquet lives and the data stands (one fingerprint at a
        time — another dataset starts the record over), and never
        serialised."""
        record = getattr(self, "_measured", None)
        if record is None or record.fingerprint != data_fingerprint:
            record = self._measured = Measured(data_fingerprint)
        return record

    def opening(self, start: Hashable, build: Callable[[], T]) -> T:
        """How a run from the start point ``start`` opens — its contour,
        costing context and first move (``BouquetRunner._open``) —
        ``build()`` on first use: kept for the last start point seen,
        shared by every run of this bouquet, and never serialised."""
        memo = getattr(self, "_opening", None)
        if memo is None or memo[0] != start:
            memo = self._opening = (start, build())
        return memo[1]

    def contour_tables(self, position: int) -> ContourTables:
        """The run-time lookups of contour ``position``: shared by every
        run of this bouquet, each table built on first use (the AxisPlans
        tables of every contour at once), and never serialised."""
        tables = getattr(self, "_contour_tables", None)
        if tables is None:
            axis_tables = AxisTables(self)
            tables = self._contour_tables = [
                ContourTables(self.space, contour, axis_tables, k)
                for k, contour in enumerate(self.contours)
            ]
        return tables[position]

    def describe(self) -> str:
        lines = [
            f"Plan bouquet for {self.space.query.name}: |B|={self.cardinality}, "
            f"rho={self.rho}, contours={len(self.contours)}, "
            f"lambda={self.lambda_:.0%}, r={self.ratio:g}",
            f"  Cmin={self.diagram.cmin:.4g}  Cmax={self.diagram.cmax:.4g}  "
            f"ratio Cmax/Cmin={self.diagram.cmax / self.diagram.cmin:.1f}",
        ]
        for contour, budget in zip(self.contours, self.budgets):
            plans = ", ".join(f"P{p}" for p in contour.plan_ids)
            lines.append(
                f"  IC{contour.index}: cost={contour.cost:.4g} budget={budget:.4g} "
                f"locations={len(contour.locations)} plans=[{plans}]"
            )
        return "\n".join(lines)


def identify_bouquet(
    diagram: PlanDiagram,
    lambda_: float = DEFAULT_LAMBDA,
    ratio: float = OPTIMAL_RATIO,
) -> PlanBouquet:
    """Identify the plan bouquet from a plan diagram (§4.3).

    Anorexic reduction is performed globally over the union of all contour
    frontier locations, so plans shared between adjacent contours are
    reused and the overall bouquet stays small.
    """
    from .contours import _diagram_tracer

    span = _diagram_tracer(diagram).span(
        "compile.identify_bouquet", lambda_=lambda_, ratio=ratio
    )
    contours = build_contours(diagram, ratio)
    if not contours:
        raise BouquetError("no isocost contours could be built")
    all_locations: List[Location] = []
    seen = set()
    for contour in contours:
        for location in contour.locations:
            if location not in seen:
                seen.add(location)
                all_locations.append(location)
    if lambda_ > 0:
        reduction = anorexic_reduce(diagram, all_locations, lambda_=lambda_)
        owner = reduction.assignment
    else:
        owner = {loc: diagram.plan_at(loc) for loc in all_locations}
    reduced_contours: List[Contour] = []
    for contour in contours:
        plan_at = {loc: owner[loc] for loc in contour.locations}
        reduced_contours.append(
            Contour(
                index=contour.index,
                cost=contour.cost,
                locations=list(contour.locations),
                plan_at=plan_at,
            )
        )
    budgets = [(1.0 + lambda_) * contour.cost for contour in reduced_contours]
    plan_ids = sorted({pid for c in reduced_contours for pid in c.plan_ids})
    span.set(
        cardinality=len(plan_ids),
        rho=densest_contour_plans(reduced_contours),
        contours=len(reduced_contours),
    )
    span.end()
    return PlanBouquet(
        space=diagram.space,
        diagram=diagram,
        registry=diagram.registry,
        contours=reduced_contours,
        budgets=budgets,
        plan_ids=plan_ids,
        lambda_=lambda_,
        ratio=ratio,
    )
