"""A serving pool shaped like the benchmark's ``serve_hot`` workload:
the three canned texts plus generated queries under an abstract-cost
cap, compiled once for every executor test that runs it."""

from __future__ import annotations

import pytest

from repro.api import BouquetConfig, Catalog, compile_bouquet, generate_workload
from repro.core.runtime import BouquetRunner, KnownSelectivities
from repro.executor import ExecutionEngine, RealExecutionService
from repro.executor.reference import reference_group_counts, reference_row_count
from repro.optimizer import actual_selectivities
from repro.query import parse_query

CANNED = [
    "select * from lineitem, orders, part "
    "where p_partkey = l_partkey and l_orderkey = o_orderkey "
    "and p_retailprice < 1000",
    "select * from lineitem, orders "
    "where l_orderkey = o_orderkey and o_totalprice < 150000",
    "select count(*) from lineitem, part "
    "where p_partkey = l_partkey and p_retailprice < 1200 "
    "group by p_brand",
]
GENERATED = 22
COST_CAP = 2000.0


@pytest.fixture(scope="session")
def catalog(schema, statistics, database):
    return Catalog(schema=schema, statistics=statistics, database=database)


@pytest.fixture(scope="session")
def pool(catalog):
    """Compiled bouquets of the canned texts and the first ``GENERATED``
    seed-42 queries whose optimal plan costs at most ``COST_CAP``."""
    optimizer = catalog.optimizer()
    queries = [parse_query(sql, catalog.schema) for sql in CANNED]
    for generated in generate_workload(catalog, 2 * GENERATED, seed=42):
        truth = actual_selectivities(generated.query, catalog.database)
        if optimizer.optimize(generated.query, truth).cost <= COST_CAP:
            queries.append(generated.query)
        if len(queries) == len(CANNED) + GENERATED:
            break
    assert len(queries) == len(CANNED) + GENERATED
    return [compile_bouquet(query, catalog, config=BouquetConfig()) for query in queries]


@pytest.fixture(scope="session")
def expected_rows(database):
    """Rows a query must return, from the independent evaluator."""

    def rows(query):
        if query.group_by:
            return len(reference_group_counts(database, query))
        if query.aggregate:
            return 1
        return reference_row_count(database, query)

    return rows


class OriginStartService(RealExecutionService):
    """The real service with its index probes withheld: the driver starts
    at the ESS origin and discovers every selectivity by executing, as
    the paper's run-time does."""

    def known_selectivities(self):
        return KnownSelectivities()


@pytest.fixture(scope="session")
def origin_started():
    """``run(compiled, database)``: :func:`repro.api.execute` with the
    driver started at the ESS origin."""

    def run(compiled, database):
        config = compiled.config
        engine = ExecutionEngine(database, cost_model=config.cost_model_object)
        return BouquetRunner(
            compiled.bouquet,
            OriginStartService(compiled.bouquet, engine),
            mode=config.mode,
            model_error_delta=config.model_error_delta,
        ).run()

    return run
