"""Ablation E — ESS grid resolution sensitivity.

The paper's guarantees live on a *continuous* ESS; our reproduction (and
any implementation) discretizes it.  This ablation sweeps the grid
resolution on the 1D EQ space and a 2D space and shows the key outputs —
contour count, bouquet size, measured MSO — stabilize quickly, i.e. the
discretization choice is not doing the work.
"""

from _bench_utils import run_once
from repro.obs import format_table
from repro.core import basic_cost_field, identify_bouquet
from repro.ess import PlanDiagram, SelectivitySpace
from repro.optimizer import actual_selectivities
from repro.robustness import bouquet_mso

RESOLUTIONS_1D = [16, 32, 64, 128]
RESOLUTIONS_2D = [8, 16, 24]


def sweep(lab, name, resolutions):
    workload = lab.workload[name]
    optimizer = lab.h_optimizer
    database = lab.h_db
    base = actual_selectivities(workload.query, database)
    rows = []
    for res in resolutions:
        space = SelectivitySpace(workload.query, workload.dimensions(), res, base)
        diagram = PlanDiagram.exhaustive(optimizer, space)
        bouquet = identify_bouquet(diagram)
        field = basic_cost_field(bouquet)
        rows.append(
            (
                name,
                res,
                len(diagram.posp_plan_ids),
                len(bouquet.contours),
                bouquet.cardinality,
                bouquet_mso(field, diagram.costs),
                bouquet.mso_bound,
            )
        )
    return rows


def test_ablation_resolution(benchmark, lab, record):
    rows = run_once(
        benchmark,
        lambda: sweep(lab, "EQ", RESOLUTIONS_1D) + sweep(lab, "2D_H_Q8a", RESOLUTIONS_2D),
    )
    table = format_table(
        ["space", "resolution", "POSP", "contours", "|B|", "measured MSO", "bound"],
        rows,
        title="Ablation — ESS grid resolution sensitivity",
    )
    record("ablation_resolution", table)

    by_space = {}
    for row in rows:
        by_space.setdefault(row[0], []).append(row)
    for name, entries in by_space.items():
        contours = [e[3] for e in entries]
        msos = [e[5] for e in entries]
        bounds = [e[6] for e in entries]
        # Contour count is resolution-independent (it depends only on
        # Cmin/Cmax, which the grid endpoints pin down).
        assert max(contours) - min(contours) <= 1, name
        # The guarantee holds at every resolution.
        for mso, bound in zip(msos, bounds):
            assert mso <= bound * (1 + 1e-6), name
        # Measured MSO stabilizes: the two finest grids agree within 25%.
        assert abs(msos[-1] - msos[-2]) <= 0.25 * msos[-2], name
