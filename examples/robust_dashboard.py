"""Robust OLAP reporting: a TPC-DS star query under data drift.

A reporting dashboard re-runs the same canned star-join query (TPC-DS
Q96 style) against a warehouse whose contents drift between loads, so
the actual join selectivities wander around the error space while the
compile-time estimate stays frozen.  This example:

* builds the bouquet once (the canned-query scenario of §4.2 where
  offline POSP precomputation is cheap to amortize);
* replays the query at several drifted "actual" locations;
* shows that the bouquet's execution trace is repeatable per location
  (the §1 repeatability property) and its sub-optimality stays within
  the guaranteed bound, while the native optimizer's worst case explodes.

Run:  python examples/robust_dashboard.py
"""

from repro import Lab, simulate_at
from repro.obs import format_table
from repro.robustness import bouquet_mso


def main():
    lab = Lab()
    ql = lab.build("3D_DS_Q96")
    bouquet = ql.bouquet
    print(ql.workload.query.describe())
    print()
    print(bouquet.describe())
    print()

    # Simulated data drift: the actual location moves through the ESS.
    space = ql.space
    drift_scenarios = {
        "fresh load (small)": space.origin,
        "normal week": tuple(s // 2 for s in space.shape),
        "holiday spike": tuple(s - 2 for s in space.shape),
        "full warehouse": space.corner,
    }

    rows = []
    for label, location in drift_scenarios.items():
        run_a = simulate_at(bouquet, location, mode="optimized")
        run_b = simulate_at(bouquet, location, mode="optimized")
        trace_a = [(e.contour_index, e.plan_id) for e in run_a.executions]
        trace_b = [(e.contour_index, e.plan_id) for e in run_b.executions]
        assert trace_a == trace_b, "bouquet execution must be repeatable"
        optimal = ql.diagram.cost_at(location)
        nat_worst = float(ql.nat.subopt_worst()[location])
        rows.append(
            (
                label,
                run_a.execution_count,
                f"{run_a.total_cost / optimal:.2f}",
                f"{nat_worst:.1f}",
            )
        )
    print(
        format_table(
            ["scenario", "bouquet execs", "bouquet sub-opt", "NAT worst-case sub-opt"],
            rows,
            title="Dashboard query under data drift",
        )
    )
    print()
    mso = bouquet_mso(ql.bouquet_cost_field, ql.pic)
    print(
        f"across the whole error space: bouquet MSO {mso:.2f} "
        f"(bound {bouquet.mso_bound:.1f}) vs native MSO {ql.nat.mso():.1f}"
    )


if __name__ == "__main__":
    main()
