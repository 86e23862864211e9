"""Isocost (IC) contour machinery (§3.1, §3.2).

Contour *costs* form a geometric progression with ratio ``r`` (r=2 is
optimal, Theorem 1) satisfying the paper's boundary conditions
``a/r < Cmin <= IC_1`` and ``IC_m = Cmax``.  Contour *locations* on the
discrete ESS grid are the maximal elements (under componentwise
dominance) of the region ``{q : PIC(q) <= IC_k}``: because the PIC is
monotone, every location inside the region is dominated by some contour
location, so executing the contour's plans with budget IC_k is guaranteed
to detect whether the query lies within the contour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import BouquetError
from ..ess.diagram import PlanDiagram
from ..ess.space import Location
from ..obs.tracer import NULL_TRACER, Tracer
from ..optimizer.plans import error_node_depth

#: Relative slack of every comparison against a contour cost or budget:
#: a location inside a contour, a contour location dominating ``q_run``,
#: a spill floor or an execution at the budget (§5.1).
SLACK = 1e-9


def _diagram_tracer(diagram: PlanDiagram) -> Tracer:
    """The tracer attached to the diagram's optimizer (null if none)."""
    if diagram.cache is not None:
        return diagram.cache.optimizer.tracer
    return NULL_TRACER

#: The optimal geometric ratio (Theorem 1: r=2 minimizes r²/(r−1)).
OPTIMAL_RATIO = 2.0


def contour_costs(cmin: float, cmax: float, ratio: float = OPTIMAL_RATIO) -> List[float]:
    """Geometric IC progression anchored at Cmax.

    ``IC_k = Cmax * ratio**(k - m)`` with ``m = floor(log_r(Cmax/Cmin)) + 1``,
    which satisfies ``IC_1 >= Cmin > IC_1 / r`` and ``IC_m = Cmax``.
    """
    if not (0 < cmin <= cmax):
        raise BouquetError(f"invalid cost range [{cmin}, {cmax}]")
    if ratio <= 1.0:
        raise BouquetError("contour ratio must exceed 1")
    if cmax == cmin:
        return [cmax]
    # m satisfies r^(m-1) <= Cmax/Cmin < r^m, so that Cmin <= IC_1 and
    # IC_1 / r < Cmin; the epsilon absorbs float noise just below integers.
    span = math.log(cmax / cmin, ratio)
    m = int(math.floor(span + 1e-9)) + 1
    return [cmax * ratio ** (k - m) for k in range(1, m + 1)]


def maximal_region_frontier(costs: np.ndarray, ic: float) -> List[Location]:
    """Maximal elements of ``{q : costs[q] <= ic}`` on the grid.

    With a monotone cost field, a location is maximal iff none of its +1
    axis successors stays within the region.
    """
    inside = costs <= ic + SLACK * ic
    if not inside.any():
        return []
    frontier = inside.copy()
    for axis in range(costs.ndim):
        # successor_inside[q] = inside[q + e_axis] (False at the boundary).
        successor_inside = np.zeros_like(inside)
        src = [slice(None)] * costs.ndim
        dst = [slice(None)] * costs.ndim
        src[axis] = slice(1, None)
        dst[axis] = slice(0, -1)
        successor_inside[tuple(dst)] = inside[tuple(src)]
        frontier &= ~successor_inside
    return [tuple(int(i) for i in idx) for idx in np.argwhere(frontier)]


@dataclass
class Contour:
    """One isocost step: its cost, grid locations, and resident plans."""

    index: int  # 1-based step number k
    cost: float  # IC_k (uninflated)
    locations: List[Location]
    #: location -> plan id responsible for it (post anorexic reduction).
    plan_at: Dict[Location, int] = field(default_factory=dict)

    @property
    def plan_ids(self) -> List[int]:
        return sorted(set(self.plan_at.values()))

    @property
    def density(self) -> int:
        """Number of distinct plans on this contour (n_k in §3.2)."""
        return len(set(self.plan_at.values()))


class ContourTables:
    """One contour's grid lookups for the run-time decisions (§5.1), for
    any number of ``q_run`` rows at once.  Each table is built on first
    use and memoised on the bouquet (:meth:`PlanBouquet.contour_tables`),
    so both drivers and every run of the bouquet share them:

    * :attr:`frontier`, read by the first-quadrant test;
    * :attr:`gather`, AxisPlans flattened into gather tables.  A run that
      starts with every dimension pinned (a served hit) never asks for
      AxisPlans, and so never builds them.
    """

    def __init__(self, bouquet, position: int):
        # No reference to the bouquet itself: it holds the tables, and a
        # cycle would keep a dropped bouquet's diagram alive until the
        # cyclic collector runs.
        self.space = bouquet.space
        self.contour = bouquet.contours[position]
        self._costs = bouquet.diagram.costs
        self._registry = bouquet.registry
        #: Resident plans, ascending: the column order of every table.
        self.plan_ids: List[int] = self.contour.plan_ids
        self._frontier: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._gather: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def frontier(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(selectivities, starts)``: the contour locations'
        selectivities ``(L, D)``, grouped by resident plan in
        :attr:`plan_ids` order, and the row each plan's group starts at.
        Built in plain Python: a served bouquet's frontier is a handful of
        locations, and a template rebind builds it for every new bouquet."""
        if self._frontier is None:
            plan_at, grids = self.contour.plan_at, self.space.grids
            grouped = sorted(self.contour.locations, key=plan_at.__getitem__)
            selectivities = np.array([[grids[d][i] for d, i in enumerate(loc)] for loc in grouped])
            owners = [plan_at[loc] for loc in grouped]
            starts = np.array([owners.index(pid) for pid in self.plan_ids], dtype=np.intp)
            self._frontier = (selectivities, starts)
        return self._frontier

    @property
    def gather(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(columns, depths)``.  ``columns[d, cell]`` is the
        :attr:`plan_ids` column of the plan the +d ray from the flat grid
        cell meets where it leaves the contour — the plan of the closest
        contour location (L1, first in list order) dominating the ray's
        last cell inside — or -1 when the cell is outside the contour.
        ``depths[j, d]`` is the depth of plan ``j``'s error node for
        dimension ``d``."""
        if self._gather is None:
            self._gather = self._build_gather()
        return self._gather

    def _build_gather(self) -> Tuple[np.ndarray, np.ndarray]:
        space = self.space
        shape = space.shape
        ndim = space.dimensionality
        locations = self.contour.locations
        inside = self._costs <= self.contour.cost * (1.0 + SLACK)

        # run_end[d][p]: the last grid index g >= p_d such that every cell
        # from p_d to g along axis d stays inside (-1 for p outside).
        run_end: List[np.ndarray] = []
        for d in range(ndim):
            axis_idx = np.arange(shape[d]).reshape(
                (1,) * d + (shape[d],) + (1,) * (ndim - d - 1)
            )
            arr = np.where(inside, axis_idx, -1)
            for g in range(shape[d] - 2, -1, -1):
                here = tuple([slice(None)] * d + [g] + [slice(None)] * (ndim - d - 1))
                nxt = tuple([slice(None)] * d + [g + 1] + [slice(None)] * (ndim - d - 1))
                cont = inside[here] & inside[nxt]
                arr[here] = np.where(cont, arr[nxt], arr[here])
            run_end.append(arr)

        # owner[p]: the closest (L1, first-wins) contour location
        # dominating grid point p, as its plan's column.
        coords = np.array(locations, dtype=np.int64).reshape(len(locations), ndim)
        owner_col = np.searchsorted(
            self.plan_ids, [self.contour.plan_at[loc] for loc in locations]
        )
        grid_idx = np.indices(shape)
        point_sum = grid_idx.sum(axis=0)
        owner = np.full(shape, -1, dtype=np.int64)
        best = np.full(shape, np.inf)
        for l, loc_sum in enumerate(coords.sum(axis=1)):
            dominates = np.ones(shape, dtype=bool)
            for d in range(ndim):
                dominates &= grid_idx[d] <= coords[l, d]
            distance = loc_sum - point_sum
            better = dominates & (distance < best)
            owner[better] = owner_col[l]
            best[better] = distance[better]

        columns = []
        for d in range(ndim):
            ray = np.clip(run_end[d], 0, shape[d] - 1)
            met = np.take_along_axis(owner, ray, axis=d)
            columns.append(np.where(inside & (run_end[d] >= 0), met, -1).ravel())
        depths = np.array(
            [
                [
                    error_node_depth(self._registry.plan(pid), frozenset((dim.pid,)))
                    for dim in space.dimensions
                ]
                for pid in self.plan_ids
            ],
            dtype=np.int64,
        ).reshape(len(self.plan_ids), ndim)
        return np.stack(columns), depths


def build_contours(
    diagram: PlanDiagram,
    ratio: float = OPTIMAL_RATIO,
) -> List[Contour]:
    """Slice the PIC with geometric IC steps and collect their frontiers.

    Plan residency is the diagram's (optimal) choice at each frontier
    location; anorexic reduction is applied separately by the bouquet
    construction.
    """
    costs = diagram.costs
    steps = contour_costs(diagram.cmin, diagram.cmax, ratio)
    tracer = _diagram_tracer(diagram)
    contours: List[Contour] = []
    for k, ic in enumerate(steps, start=1):
        locations = maximal_region_frontier(costs, ic)
        plan_at = {loc: diagram.plan_at(loc) for loc in locations}
        contour = Contour(index=k, cost=ic, locations=locations, plan_at=plan_at)
        if tracer.enabled:
            tracer.event(
                "compile.contour",
                index=k,
                cost=ic,
                locations=len(locations),
                plans=contour.density,
            )
        contours.append(contour)
    return contours


def densest_contour_plans(contours: Sequence[Contour]) -> int:
    """ρ — the plan cardinality of the densest contour (§3.2)."""
    if not contours:
        raise BouquetError("no contours")
    return max(contour.density for contour in contours)
