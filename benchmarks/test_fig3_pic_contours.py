"""Figure 3 — the PIC, its isocost discretization, and the plan bouquet.

Regenerates Figure 3's content: the geometric IC steps projected onto the
EQ query's PIC, each step's crossing selectivity, the assigned bouquet
plan, and the resulting bouquet set.
"""

from _bench_utils import run_once
from repro.obs import format_table


def build(lab):
    ql = lab.build("EQ")
    rows = []
    for contour, budget in zip(ql.bouquet.contours, ql.bouquet.budgets):
        location = contour.locations[0]
        selectivity = ql.space.selectivities_at(location)[0]
        rows.append(
            (
                f"IC{contour.index}",
                contour.cost,
                budget,
                f"{selectivity * 100:.4f}",
                ", ".join(f"P{p}" for p in contour.plan_ids),
            )
        )
    return ql, rows


def test_fig3_isocost_steps_and_bouquet(benchmark, lab, record):
    ql, rows = run_once(benchmark, lambda: build(lab))
    bouquet = ql.bouquet
    lines = [
        format_table(
            ["step", "cost", "budget(1+λ)", "crossing sel %", "plan"],
            rows,
            title="Figure 3 — isocost steps on the PIC (EQ, r=2, λ=20%)",
        ),
        f"PIC range: Cmin={ql.diagram.cmin:.4g}  Cmax={ql.diagram.cmax:.4g} "
        f"(ratio {ql.diagram.cmax / ql.diagram.cmin:.1f})",
        f"plan bouquet: {{{', '.join(f'P{p}' for p in bouquet.plan_ids)}}} "
        f"(|B|={bouquet.cardinality} of {len(ql.diagram.posp_plan_ids)} POSP plans)",
    ]
    record("fig3_pic_contours", "\n".join(lines))

    # Figure 3 as an actual figure: the PIC with its isocost steps.
    import os

    from conftest import RESULTS_DIR
    from repro.bench.svg import loglog_chart

    grid = ql.space.grids[0]
    svg = loglog_chart(
        {"PIC (optimal cost)": (list(grid), list(ql.pic))},
        "Figure 3 — PIC with doubling isocost steps (EQ)",
        "selectivity",
        "cost",
        hlines=[c.cost for c in bouquet.contours],
    )
    svg.save(os.path.join(RESULTS_DIR, "fig3_pic_contours.svg"))

    # Paper shapes: doubling steps, final step at Cmax, bouquet a strict
    # subset of POSP.
    costs = [c.cost for c in bouquet.contours]
    for a, b in zip(costs, costs[1:]):
        assert b == 2 * a or abs(b / a - 2) < 1e-9
    assert costs[-1] == ql.diagram.cmax
    assert bouquet.cardinality <= len(ql.diagram.posp_plan_ids)
    # Crossing selectivities increase monotonically along the PIC.
    crossings = [float(r[3]) for r in rows]
    assert crossings == sorted(crossings)
