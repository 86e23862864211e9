"""Shared, deterministic environments and query pools for the workloads.

Everything the program sees is built here from fixed constants; the
benchmark's ``--seed`` never reaches the program — it only orders and
draws ops from these pools (see ``README.md``, "What the seed does").
"""

from __future__ import annotations

from typing import List

from repro.api import Catalog, generate_workload
from repro.catalog.tpcds import tpcds_generator_spec, tpcds_schema
from repro.catalog.tpch import tpch_generator_spec, tpch_schema
from repro.datagen import Database
from repro.executor.reference import reference_group_counts, reference_row_count
from repro.optimizer import actual_selectivities

SCALE = 0.003
DATA_SEED = 7
STATS_SAMPLE = 1500
STATS_SEED = 3

#: The wlgen seed every query pool is generated from.  Fixed on purpose:
#: which queries a workload holds decides its cost, so it is part of the
#: benchmark's definition and not of a run's seed.
POOL_SEED = 42

#: Op-list hygiene rule.  A generated query enters a serving pool only if
#: its optimal plan at the ground-truth selectivities costs at most this
#: many abstract cost units — a deterministic quantity known without
#: executing anything.  wlgen query 10 of seed 42 costs 45 853 units,
#: executes in ~3 s at ~740 MB and once made set-up swing 24-53 s; query
#: 38 (4 354 units, 128 ms) would alone be 6% of a serve_hot pass.
SERVE_COST_CAP = 2000.0

#: The section 4.2 canned workload (the three texts `repro serve-smoke` uses).
CANNED_WORKLOAD = [
    "select * from lineitem, orders, part "
    "where p_partkey = l_partkey and l_orderkey = o_orderkey "
    "and p_retailprice < 1000",
    "select * from lineitem, orders "
    "where l_orderkey = o_orderkey and o_totalprice < 150000",
    "select count(*) from lineitem, part "
    "where p_partkey = l_partkey and p_retailprice < 1200 "
    "group by p_brand",
]


def build_catalog(benchmark: str = "tpch") -> Catalog:
    """Schema + generated data + sampled statistics, all seed-pinned."""
    if benchmark == "tpcds":
        schema, spec = tpcds_schema(SCALE), tpcds_generator_spec(SCALE)
    else:
        schema, spec = tpch_schema(SCALE), tpch_generator_spec(SCALE)
    database = Database.generate(schema, spec, seed=DATA_SEED)
    statistics = database.build_statistics(
        sample_size=STATS_SAMPLE, seed=STATS_SEED
    )
    return Catalog(schema=schema, statistics=statistics, database=database)


def optimal_cost(catalog: Catalog, optimizer, query) -> float:
    """Abstract cost of the optimal plan at the actual selectivities."""
    truth = actual_selectivities(query, catalog.database)
    return optimizer.optimize(query, truth).cost


def serving_pool(catalog: Catalog, count: int, generator_config=None) -> List:
    """The first ``count`` POOL_SEED queries that pass the hygiene rule."""
    optimizer = catalog.optimizer()
    pool: List = []
    batch = 2 * count
    candidates = generate_workload(
        catalog, batch, seed=POOL_SEED, config=generator_config
    )
    for generated in candidates:
        if optimal_cost(catalog, optimizer, generated.query) <= SERVE_COST_CAP:
            pool.append(generated)
            if len(pool) == count:
                return pool
    raise RuntimeError(
        f"only {len(pool)} of {batch} generated queries pass the cost cap"
    )


def expected_rows(catalog: Catalog, query) -> int:
    """Rows the engine must report, from the independent evaluator."""
    if query.group_by:
        return len(reference_group_counts(catalog.database, query))
    if query.aggregate:
        return 1
    return reference_row_count(catalog.database, query)
