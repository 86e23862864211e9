"""Figure 2 — POSP plans and their optimality ranges on the 1D EQ query.

Regenerates the annotated plan list of Figure 2: each POSP plan with the
selectivity interval of the p_retailprice predicate over which it is the
optimizer's choice.
"""

from _bench_utils import run_once
from repro.obs import format_table


def collect_posp_ranges(lab):
    ql = lab.build("EQ")
    space, diagram = ql.space, ql.diagram
    rows = []
    current = None
    start = 0
    grid = space.grids[0]
    for i in range(space.shape[0]):
        plan = diagram.plan_at((i,))
        if plan != current:
            if current is not None:
                rows.append((current, grid[start], grid[i - 1]))
            current, start = plan, i
    rows.append((current, grid[start], grid[-1]))
    return ql, rows


def test_fig2_posp_plans_cover_dimension(benchmark, lab, record):
    ql, rows = run_once(benchmark, lambda: collect_posp_ranges(lab))
    table = format_table(
        ["plan", "from sel %", "to sel %", "signature"],
        [
            (
                f"P{plan}",
                f"{lo * 100:.4f}",
                f"{hi * 100:.4f}",
                ql.diagram.registry.plan(plan).signature()[:70],
            )
            for plan, lo, hi in rows
        ],
        title="Figure 2 — POSP plans on the p_retailprice dimension (EQ)",
    )
    record("fig2_posp_1d", table)

    # Paper shape: a handful of distinct POSP plans partition the range,
    # with different plans at the low and high ends.
    plans = [plan for plan, _, _ in rows]
    assert len(set(plans)) >= 3
    assert plans[0] != plans[-1]
