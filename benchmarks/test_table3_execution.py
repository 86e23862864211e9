"""Table 3 — real execution of the bouquet on 2D_H_Q8a.

This is the §6.7 run-time validation: the 2D_H_Q8a instance is executed
for real on the instrumented engine (not the cost-model simulator).  The
native optimizer is given an erroneous estimate ``qe`` (the paper's
instance mis-estimated (33.7%, 45.6%) as (3.8%, 0.02%) through AVI
assumptions; we inject a comparable multi-decade underestimate), while
the true location ``qa`` sits at the top of both join dimensions.

Reported exactly as in Table 3: per-contour execution counts and costs
for basic and optimized BOU, plus the NAT / basic / optimized / optimal
summary.  "Time" is engine cost units (the engine charges the same units
as the optimizer; wall-clock seconds are testbed-specific).

The table is the paper's account — discovery from the ESS origin — so it
is driven through a service with its index probes withheld.  Both error
dimensions here are base-table selections, which the shipped service
measures before the first contour; that run is reported on its own line.
"""

from _bench_utils import OriginStartService, run_once
from repro.obs import format_table
from repro.core import BouquetRunner
from repro.executor import ExecutionEngine, RealExecutionService


def run_experiment(lab):
    import time

    ql = lab.build("2D_H_Q8a")
    query = ql.workload.query
    engine = ExecutionEngine(lab.h_db)
    wall = {}

    # qa: the true location — the actual selectivities of the two error
    # predicates (≈ (33.7%, 45.6%) by construction).
    from repro.optimizer import actual_selectivities

    truth = actual_selectivities(query, lab.h_db)
    qa_values = [truth[pid] for pid in ql.workload.dim_pids]
    qa_location = ql.space.nearest_location(qa_values)
    optimal_plan = ql.diagram.registry.plan(ql.diagram.plan_at(qa_location))
    optimal = engine.execute(query, optimal_plan)

    # qe: the paper's AVI-style mis-estimate (3.8%, 0.02%).
    qe_location = ql.space.nearest_location([0.038, 0.0002])
    nat_plan = ql.diagram.registry.plan(ql.diagram.plan_at(qe_location))
    nat = engine.execute(query, nat_plan)

    runs = {}
    for mode in ("basic", "optimized"):
        service = OriginStartService(ql.bouquet, ExecutionEngine(lab.h_db))
        start = time.perf_counter()
        runs[mode] = BouquetRunner(ql.bouquet, service, mode=mode).run()
        wall[mode] = time.perf_counter() - start
    probing = RealExecutionService(ql.bouquet, ExecutionEngine(lab.h_db))
    runs["probed"] = BouquetRunner(ql.bouquet, probing, mode="optimized").run()
    return ql, optimal, nat, runs, wall


def contour_breakdown(result):
    by_contour = {}
    for record in result.executions:
        count, spent = by_contour.get(record.contour_index, (0, 0.0))
        by_contour[record.contour_index] = (count + 1, spent + record.cost_spent)
    return by_contour


def test_table3_bouquet_execution(benchmark, lab, record):
    ql, optimal, nat, runs, wall = run_once(benchmark, lambda: run_experiment(lab))
    basic, optimized = runs["basic"], runs["optimized"]

    basic_by = contour_breakdown(basic)
    opt_by = contour_breakdown(optimized)
    rows = []
    for contour in ql.bouquet.contours:
        b_count, b_cost = basic_by.get(contour.index, (0, 0.0))
        o_count, o_cost = opt_by.get(contour.index, (0, 0.0))
        rows.append((contour.index, contour.cost, b_count, b_cost, o_count, o_cost))
    table = format_table(
        ["contour", "IC cost", "# exec (basic)", "cost (basic)", "# exec (opt)", "cost (opt)"],
        rows,
        title="Table 3 — contour-wise bouquet execution for 2D_H_Q8a (real engine)",
    )
    summary = format_table(
        ["NAT", "Basic BOU", "Opt. BOU", "Optimal"],
        [(nat.spent, basic.total_cost, optimized.total_cost, optimal.spent)],
        title="Performance summary (engine cost units)",
    )
    timing = (
        f"wall clock (this machine): basic BOU {wall['basic']:.3f}s over "
        f"{basic.execution_count} executions, optimized BOU "
        f"{wall['optimized']:.3f}s over {optimized.execution_count} "
        f"(the paper reports seconds on its testbed; cost units are the "
        f"portable comparison)"
    )
    probed = runs["probed"]
    started = (
        f"started from index probes (both dimensions are base-table "
        f"selections): {probed.execution_count} execution on contour "
        f"{probed.executions[-1].contour_index}, cost {probed.total_cost:.0f} "
        f"of which probes {probed.probe_cost:.0f} — "
        f"{probed.total_cost / optimal.spent:.2f}x optimal"
    )
    record("table3_execution", table + "\n\n" + summary + "\n" + timing + "\n" + started)

    # The 2D plan diagram with contour frontiers (Figure 6's geometry).
    import os

    from conftest import RESULTS_DIR
    from repro.bench.svg import diagram_map
    from repro.core.contours import maximal_region_frontier

    contour_cells = set()
    ics = [contour.cost for contour in ql.bouquet.contours]
    for frontier in maximal_region_frontier(ql.diagram.costs, ics):
        contour_cells.update(frontier)
    svg = diagram_map(
        ql.diagram.plan_ids,
        "2D_H_Q8a — plan diagram with isocost contour frontiers",
        contour_cells=contour_cells,
    )
    svg.save(os.path.join(RESULTS_DIR, "table3_plan_diagram.svg"))

    # Both bouquet modes must return the correct result.
    assert basic.completed and optimized.completed
    assert basic.result_rows == optimal.rows
    assert optimized.result_rows == optimal.rows

    # Paper shapes: NAT's erroneous estimate is far costlier than optimal;
    # the bouquet lands in between, well under NAT; optimized BOU needs
    # fewer executions than basic BOU.
    assert nat.spent > 3 * optimal.spent
    assert basic.total_cost < nat.spent
    assert optimized.total_cost <= basic.total_cost * 1.05
    assert optimized.execution_count <= basic.execution_count
    # Started from what the indexes can count, nothing is left to discover.
    assert probed.execution_count == 1 and probed.result_rows == optimal.rows
    assert probed.total_cost <= optimized.total_cost
    # The bouquet's sub-optimality respects the theoretical bound.
    assert basic.total_cost <= ql.bouquet.mso_bound * optimal.spent * 1.2
