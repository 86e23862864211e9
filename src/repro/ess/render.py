"""ASCII rendering of plan diagrams, PIC profiles, and contours.

Picasso-flavoured visualizations for terminals and docs: 1D spaces
render as an annotated cost profile; 2D spaces as a plan-region map with
optional isocost contour overlays.  Higher dimensions render as 2D
slices.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..exceptions import EssError
from .diagram import PlanDiagram

#: Glyphs used for plan regions, in assignment order.
_GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def render_1d_profile(
    diagram: PlanDiagram, width: int = 64, height: int = 16
) -> str:
    """Render a 1D PIC as a log-log ASCII curve with plan annotations.

    Mirrors Figure 3's layout: cost on the y axis (log), selectivity on
    the x axis (log), the curve marked with each region's plan glyph.
    """
    if diagram.space.dimensionality != 1:
        raise EssError("render_1d_profile needs a 1D diagram")
    costs = diagram.costs
    n = costs.size
    xs = np.linspace(0, n - 1, min(width, n)).round().astype(int)
    log_costs = np.log10(costs[xs])
    lo, hi = float(log_costs.min()), float(log_costs.max())
    span = max(hi - lo, 1e-9)
    glyph_of = _glyph_map(diagram)
    canvas = [[" "] * len(xs) for _ in range(height)]
    for col, grid_idx in enumerate(xs):
        level = (np.log10(costs[grid_idx]) - lo) / span
        row = height - 1 - int(round(level * (height - 1)))
        canvas[row][col] = glyph_of[diagram.plan_at((int(grid_idx),))]
    lines = ["".join(row).rstrip() for row in canvas]
    lines.append("-" * len(xs))
    legend = _legend(diagram, glyph_of)
    lines.append(
        f"x: selectivity {diagram.space.grids[0][0]:.3g} .. "
        f"{diagram.space.grids[0][-1]:.3g} (log)   "
        f"y: cost {costs.min():.3g} .. {costs.max():.3g} (log)"
    )
    lines.append(legend)
    return "\n".join(lines)


def render_2d_diagram(
    diagram: PlanDiagram,
    contour_costs: Optional[Sequence[float]] = None,
    max_size: int = 48,
) -> str:
    """Render a 2D plan diagram as a glyph map (Picasso style).

    Each cell shows the plan owning that ESS location; when
    ``contour_costs`` is given, cells on a contour frontier are rendered
    as ``*`` instead, showing where the isocost surfaces cut the space.
    The y axis (dimension 0) grows upward, the x axis (dimension 1)
    rightward — matching Figure 6's orientation.
    """
    if diagram.space.dimensionality != 2:
        raise EssError("render_2d_diagram needs a 2D diagram")
    rows, cols = diagram.space.shape
    if rows > max_size or cols > max_size:
        raise EssError(f"diagram too large to render (> {max_size} per side)")
    glyph_of = _glyph_map(diagram)
    on_contour = set()
    if contour_costs:
        from ..core.contours import maximal_region_frontier

        for frontier in maximal_region_frontier(diagram.costs, contour_costs):
            on_contour.update(frontier)
    lines = []
    for i in reversed(range(rows)):
        cells = []
        for j in range(cols):
            if (i, j) in on_contour:
                cells.append("*")
            else:
                cells.append(glyph_of[diagram.plan_at((i, j))])
        lines.append("".join(cells))
    lines.append("-" * cols)
    lines.append(_legend(diagram, glyph_of))
    if contour_costs:
        lines.append("* = isocost contour frontier")
    return "\n".join(lines)


def render_slice(
    diagram: PlanDiagram,
    axes: Tuple[int, int] = (0, 1),
    fixed: Optional[dict] = None,
) -> str:
    """Render a 2D slice of a higher-dimensional diagram.

    ``axes`` selects the two free dimensions; every other dimension is
    pinned to the index given in ``fixed`` (default 0).
    """
    space = diagram.space
    d = space.dimensionality
    if d < 2:
        raise EssError("render_slice needs at least 2 dimensions")
    ax_y, ax_x = axes
    if ax_y == ax_x or not (0 <= ax_y < d and 0 <= ax_x < d):
        raise EssError(f"bad slice axes {axes} for a {d}D space")
    fixed = dict(fixed or {})
    glyph_of = _glyph_map(diagram)
    lines = []
    for i in reversed(range(space.shape[ax_y])):
        cells = []
        for j in range(space.shape[ax_x]):
            location = []
            for dim in range(d):
                if dim == ax_y:
                    location.append(i)
                elif dim == ax_x:
                    location.append(j)
                else:
                    location.append(int(fixed.get(dim, 0)))
            cells.append(glyph_of[diagram.plan_at(tuple(location))])
        lines.append("".join(cells))
    lines.append("-" * space.shape[ax_x])
    lines.append(_legend(diagram, glyph_of))
    lines.append(
        f"slice: y=dim{ax_y} ({space.dimensions[ax_y].name}), "
        f"x=dim{ax_x} ({space.dimensions[ax_x].name})"
    )
    return "\n".join(lines)


def _glyph_map(diagram: PlanDiagram) -> dict:
    posp = diagram.posp_plan_ids
    if len(posp) > len(_GLYPHS):
        raise EssError(f"too many plans to render ({len(posp)})")
    return {plan_id: _GLYPHS[i] for i, plan_id in enumerate(posp)}


def _legend(diagram: PlanDiagram, glyph_of: dict) -> str:
    entries = [f"{glyph}=P{plan_id}" for plan_id, glyph in glyph_of.items()]
    return "legend: " + " ".join(entries)
