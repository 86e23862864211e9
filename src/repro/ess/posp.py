"""POSP generation, including the contour-focused exploration of §4.2.

The exhaustive method lives on :class:`~repro.ess.diagram.PlanDiagram`;
this module adds the paper's cheaper strategy: only a narrow band of
locations around each isocost contour is optimized, found by recursively
subdividing ESS hypercubes and pruning the ones no contour passes through
(a contour passes through a hypercube iff its cost lies within the cost
range established by the corners of the hypercube's principal diagonal —
valid because the PIC is monotone).  Every band location is planned
by a slab DP (:meth:`~repro.optimizer.Optimizer.optimize_batch`), a lone
one by a one-location slab.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..exceptions import EssError
from ..optimizer.optimizer import Optimizer
from .space import Location, SelectivitySpace

#: Boxes whose longest edge is at most this many grid steps are
#: optimized exhaustively instead of being split further.
MIN_BOX_EDGE = 2


@dataclass
class ContourBandResult:
    """Sparse POSP knowledge produced by the contour-focused exploration."""

    #: location -> (plan_id, optimal cost) for every optimized location.
    optimized: Dict[Location, Tuple[int, float]]
    #: Number of locations optimized.
    optimizer_calls: int
    #: Number of hypercubes pruned without optimizing their interior.
    pruned_boxes: int
    #: DP enumerations actually executed.
    slabs: int = 0

    @property
    def posp_plan_ids(self) -> List[int]:
        return sorted({plan_id for plan_id, _ in self.optimized.values()})


def contour_focused_posp(
    optimizer: Optimizer,
    space: SelectivitySpace,
    contour_costs: Sequence[float],
) -> ContourBandResult:
    """Optimize only near the isocost contours.

    Each subdivision level is optimized as slabs through
    :meth:`Optimizer.optimize_batch`.  The hypercube tree is walked
    breadth-first, level-synchronously: all principal-diagonal corner
    probes of a level form one slab, then — after pruning and splitting
    — all leaf interiors of the level form another, so the DP's per-slab
    setup is amortized over the whole band instead of being paid per
    two-corner probe (a lone location is a one-location slab).  Plans
    register in within-slab location order, so replaying ``optimized``
    in insertion order through one optimize per location (the paper's
    literal procedure) reproduces it byte for byte, plan ids included.

    Parameters
    ----------
    contour_costs:
        The IC step costs (from :func:`repro.core.contours.contour_costs`).

    Boxes whose longest edge is at most :data:`MIN_BOX_EDGE` are
    optimized exhaustively.
    """
    if not contour_costs:
        raise EssError("contour_focused_posp needs at least one contour cost")
    sorted_costs = sorted(contour_costs)
    optimized: Dict[Location, Tuple[int, float]] = {}
    calls = 0
    pruned = 0
    slabs = 0

    def optimize_slab(locations) -> None:
        """Optimize every uncached location, preserving visit order.

        Registration order is what keeps plan ids those of a
        location-by-location replay: the kernel registers slab winners
        in location order, which is precisely the order a loop of
        one-location calls would have registered them.
        """
        nonlocal calls, slabs
        todo: List[Location] = []
        seen = set()
        for location in locations:
            if location not in optimized and location not in seen:
                seen.add(location)
                todo.append(location)
        if not todo:
            return
        assignments = [space.assignment_at(location) for location in todo]
        results = optimizer.optimize_batch(space.query, assignments)
        for location, result in zip(todo, results):
            optimized[location] = (result.plan_id, result.cost)
        slabs += 1
        calls += len(todo)

    def any_contour_in(clo: float, chi: float) -> bool:
        """Does any IC cost fall within [clo, chi]?"""
        i = np.searchsorted(sorted_costs, clo)
        return i < len(sorted_costs) and sorted_costs[i] <= chi

    def explore(root_lo: Location, root_hi: Location) -> None:
        """Level-synchronous BFS over the subdivision tree.

        Prune/leaf/split decisions depend only on each box's own corner
        costs and geometry — never on traversal order — so merging a
        level's probes (and its leaf interiors) into shared slabs visits
        exactly the boxes the depth-first recursion would, with the same
        prune count, while handing the batch kernel band-sized slabs.
        """
        nonlocal pruned
        frontier: List[Tuple[Location, Location]] = [(root_lo, root_hi)]
        while frontier:
            # Principal-diagonal corners bound the PIC over each box
            # (PCM); the whole level's corners form one slab.
            optimize_slab(
                corner for box in frontier for corner in box
            )
            next_frontier: List[Tuple[Location, Location]] = []
            leaves: List[Location] = []
            for lo, hi in frontier:
                _, cost_lo = optimized[lo]
                _, cost_hi = optimized[hi]
                # PCM says cost_lo <= cost_hi, but tie-breaking among
                # equal-cost plans can invert the pair by a whisker; an
                # inverted interval would silently prune the box and lose
                # its contour band, so the bounds are ordered explicitly
                # before the containment test.
                if not any_contour_in(min(cost_lo, cost_hi), max(cost_lo, cost_hi)):
                    pruned += 1
                    continue
                edges = [h - l for l, h in zip(lo, hi)]
                if max(edges) <= MIN_BOX_EDGE:
                    leaves.extend(
                        itertools.product(
                            *(range(l, h + 1) for l, h in zip(lo, hi))
                        )
                    )
                    continue
                # Split along the longest edge.
                axis = max(range(len(edges)), key=lambda d: edges[d])
                mid = (lo[axis] + hi[axis]) // 2
                lo_a, hi_a = list(lo), list(hi)
                hi_a[axis] = mid
                lo_b, hi_b = list(lo), list(hi)
                lo_b[axis] = mid  # midplane overlap keeps the band contiguous
                next_frontier.append((tuple(lo_a), tuple(hi_a)))
                next_frontier.append((tuple(lo_b), tuple(hi_b)))
            # All leaf interiors of the level form the second slab.
            optimize_slab(leaves)
            frontier = next_frontier

    with optimizer.tracer.span(
        "ess.contour_posp",
        locations=space.size,
        contours=len(sorted_costs),
    ) as span:
        explore(space.origin, space.corner)
        span.set(
            optimizer_calls=calls,
            pruned_boxes=pruned,
            slabs=slabs,
        )
    return ContourBandResult(
        optimized=optimized,
        optimizer_calls=calls,
        pruned_boxes=pruned,
        slabs=slabs,
    )
