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


def maximal_region_frontier(costs: np.ndarray, ics: Sequence[float]) -> List[List[Location]]:
    """Per IC, the maximal elements of ``{q : costs[q] <= ic}`` on the
    grid, in row-major order.

    With a monotone cost field, a location is maximal iff none of its +1
    axis successors stays within the region.  Every IC's frontier is cut
    from one ``(len(ics), *grid)`` mask.
    """
    limits = np.asarray(ics, dtype=float)
    limits = limits + SLACK * limits
    inside = costs[None] <= limits.reshape((-1,) + (1,) * costs.ndim)
    frontier = inside.copy()
    for axis in range(1, inside.ndim):
        # A location whose successor along ``axis`` is inside is not maximal.
        head = [slice(None)] * inside.ndim
        tail = [slice(None)] * inside.ndim
        head[axis], tail[axis] = slice(0, -1), slice(1, None)
        frontier[tuple(head)] &= ~inside[tuple(tail)]
    at = np.argwhere(frontier)
    cells = [tuple(row) for row in at[:, 1:].tolist()]
    ends = np.cumsum(np.bincount(at[:, 0], minlength=len(limits))).tolist()
    return [cells[start:end] for start, end in zip([0] + ends, ends)]


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
    any number of ``q_run`` rows at once.  Memoised on the bouquet
    (:meth:`PlanBouquet.contour_tables`), so both drivers and every run
    of the bouquet share them; each table is built on first use:

    * :attr:`frontier`, read by the first-quadrant test;
    * :attr:`gather`, AxisPlans flattened into gather tables — one
      :class:`AxisTables` pass builds them for every contour of the
      bouquet.  A run that starts with every dimension pinned (a served
      hit) never asks for AxisPlans, and so never builds them.
    """

    def __init__(self, space, contour: Contour, axis_tables: AxisTables, position: int):
        self.space = space
        self.contour = contour
        self._axis_tables = axis_tables
        self._position = position
        #: Resident plans, ascending: the column order of every table.
        self.plan_ids: List[int] = contour.plan_ids
        self._frontier: Optional[Tuple[np.ndarray, np.ndarray]] = None

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
        columns, depths = self._axis_tables.tables
        return columns[self._position], depths[self._position]


class AxisTables:
    """The AxisPlans gather tables of every contour of one bouquet,
    built together on the first lookup of any of them: each step below
    is one array pass over ``(contours, *grid)``."""

    def __init__(self, bouquet):
        # No reference to the bouquet itself: it holds the tables, and a
        # cycle would keep a dropped bouquet's diagram alive until the
        # cyclic collector runs.
        self._space = bouquet.space
        self._costs = bouquet.diagram.costs
        self._contours = bouquet.contours
        self._registry = bouquet.registry
        self._plan_ids = bouquet.plan_ids
        self._tables: Optional[Tuple[np.ndarray, List[np.ndarray]]] = None

    @property
    def tables(self) -> Tuple[np.ndarray, List[np.ndarray]]:
        """``(columns, depths)``: ``columns[k]`` and ``depths[k]`` are
        contour ``k``'s :attr:`ContourTables.gather`."""
        if self._tables is None:
            self._tables = self._build()
        return self._tables

    def _build(self) -> Tuple[np.ndarray, List[np.ndarray]]:
        space, contours = self._space, self._contours
        shape, ndim = space.shape, space.dimensionality
        grid_axes = range(1, ndim + 1)  # axis 0 is the contour
        ic = np.array([contour.cost for contour in contours])
        inside = self._costs <= (ic * (1.0 + SLACK)).reshape((-1,) + (1,) * ndim)

        def suffix_min(values: np.ndarray, axis: int) -> np.ndarray:
            """Each cell's minimum over itself and the cells after it."""
            return np.flip(np.minimum.accumulate(np.flip(values, axis), axis=axis), axis)

        # owner[k, p]: the closest (L1, first-wins) location of contour k
        # dominating grid point p, found as the minimum of the key
        # ``loc_sum * n + index`` over the cells dominating p, -1 if none.
        locations = [loc for contour in contours for loc in contour.locations]
        n = len(locations)
        unset = np.iinfo(np.int64).max
        keys = np.full(inside.shape, unset, dtype=np.int64)
        cells = np.array(locations, dtype=np.int64).reshape(n, ndim)
        contour_of = np.repeat(np.arange(len(contours)), [len(c.locations) for c in contours])
        keys[(contour_of, *cells.T)] = cells.sum(axis=1) * n + np.arange(n)
        for axis in grid_axes:
            keys = suffix_min(keys, axis)
        column_of = np.concatenate([
            np.searchsorted(contour.plan_ids, [contour.plan_at[loc] for loc in contour.locations])
            for contour in contours
        ])
        owner = np.where(keys == unset, -1, column_of[keys % n])

        # The +d ray from p leaves the contour just before the first cell
        # outside it, at or after p along d.
        columns = np.empty((len(contours), ndim) + tuple(shape), dtype=np.int64)
        for d, axis in enumerate(grid_axes):
            along = np.arange(shape[d]).reshape((shape[d],) + (1,) * (ndim - d - 1))
            first_out = suffix_min(np.where(inside, shape[d], along), axis)
            ray_end = np.maximum(first_out - 1, 0)
            columns[:, d] = np.where(inside, np.take_along_axis(owner, ray_end, axis=axis), -1)

        depth_of = np.array(
            [
                [
                    error_node_depth(self._registry.plan(pid), frozenset((dim.pid,)))
                    for dim in space.dimensions
                ]
                for pid in self._plan_ids
            ],
            dtype=np.int64,
        ).reshape(len(self._plan_ids), ndim)
        depths = [
            depth_of[np.searchsorted(self._plan_ids, contour.plan_ids)] for contour in contours
        ]
        return columns.reshape(len(contours), ndim, -1), depths


def build_contours(
    diagram: PlanDiagram,
    ratio: float = OPTIMAL_RATIO,
) -> List[Contour]:
    """Slice the PIC with geometric IC steps and collect their frontiers.

    Plan residency is the diagram's (optimal) choice at each frontier
    location; anorexic reduction is applied separately by the bouquet
    construction.
    """
    steps = contour_costs(diagram.cmin, diagram.cmax, ratio)
    frontiers = maximal_region_frontier(diagram.costs, steps)
    # Every frontier location's resident plan, in one gather.
    cells = [loc for locations in frontiers for loc in locations]
    cells = np.array(cells, dtype=np.int64).reshape(-1, diagram.costs.ndim)
    owners = iter(diagram.plan_ids[tuple(cells.T)].tolist())
    tracer = _diagram_tracer(diagram)
    contours: List[Contour] = []
    for k, (ic, locations) in enumerate(zip(steps, frontiers), start=1):
        plan_at = {loc: next(owners) for loc in locations}
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
