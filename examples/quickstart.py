"""Quickstart: build a plan bouquet for the paper's example query and
execute it — both in the cost-model world and for real.

Walks the full pipeline of the paper on the 1D example (Figures 1-4)
through the public :mod:`repro.api` facade:

1. generate a TPC-H database and (sampled, imperfect) statistics;
2. ``compile_bouquet`` sweeps the error-prone selectivity to get the
   POSP, discretizes the PIC with doubling isocost contours, and
   anorexically reduces the result -> the plan bouquet;
3. ``simulate`` runs the bouquet at a chosen "actual" selectivity the
   optimizer never sees;
4. ``execute`` runs it for real against the generated data.

Run:  python examples/quickstart.py
"""

from repro import (
    BouquetConfig,
    Catalog,
    Database,
    compile_bouquet,
    execute,
    simulate,
    tpch_schema,
)
from repro.catalog import tpch_generator_spec

SQL = (
    "select * from lineitem, orders, part "
    "where p_partkey = l_partkey and l_orderkey = o_orderkey "
    "and p_retailprice < 1000"
)


def main():
    # --- the world: schema, data, imperfect statistics -------------------
    scale = 0.003
    schema = tpch_schema(scale)
    database = Database.generate(schema, tpch_generator_spec(scale), seed=42)
    statistics = database.build_statistics(sample_size=2000)
    catalog = Catalog(schema, statistics=statistics, database=database)

    # --- compile time -----------------------------------------------------
    config = BouquetConfig(resolution=64, lambda_=0.2, ratio=2.0)
    compiled = compile_bouquet(SQL, catalog, config=config)

    print(compiled.query.describe())
    print()
    print(compiled.space.describe())
    print()
    print(compiled.bouquet.describe())
    print()

    # --- run time (cost-model simulation) ---------------------------------
    # An "actual" selectivity the optimizer never sees: the bouquet
    # discovers it by budget-doubling partial executions.
    qa = [0.6]
    result = simulate(compiled, qa)
    location = compiled.space.nearest_location(qa)
    optimal = compiled.bouquet.diagram.cost_at(location)
    print(f"simulated bouquet run at selectivity {qa[0]:.0%}:")
    for record in result.executions:
        kind = "spilled" if record.spilled else "full"
        status = "completed" if record.completed else "budget-killed"
        print(
            f"  IC{record.contour_index}: plan P{record.plan_id} ({kind}) "
            f"spent {record.cost_spent:.1f} of {record.budget:.1f} — {status}"
        )
    print(
        f"  total {result.total_cost:.1f} vs optimal {optimal:.1f} "
        f"=> sub-optimality {result.total_cost / optimal:.2f} "
        f"(guaranteed bound: {compiled.mso_bound:.1f})"
    )
    print()

    # --- run time (real execution) -----------------------------------------
    # On real data the selection's selectivity is counted through the
    # database's index before the first contour, so nothing is left to
    # discover: one execution, plus the probe's charge.
    real = execute(compiled, database)
    print(
        f"real execution: {real.result_rows} result rows in "
        f"{real.execution_count} execution(s), "
        f"total cost {real.total_cost:.1f} engine units "
        f"(index probes {real.probe_cost:.1f})"
    )


if __name__ == "__main__":
    main()
