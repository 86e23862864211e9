"""Shared fixtures: a small deterministic TPC-H world and a tiny Lab.

Everything is session-scoped — construction is deterministic, so sharing
artifacts across tests is safe and keeps the suite fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.harness import Lab
from repro.catalog import tpch_generator_spec, tpch_schema
from repro.core.simulation import simulate_at
from repro.datagen import Database
from repro.ess import ErrorDimension, PlanDiagram, SelectivitySpace
from repro.optimizer import Optimizer, actual_selectivities
from repro.query import JoinPredicate, Query, SelectionPredicate
from repro.wlgen import GeneratorConfig, QueryGenerator

SCALE = 0.003

#: Range-only sampling: every selection becomes an error dimension, so
#: rebinding a template instance is an identity delta refresh.
TEMPLATED_WORKLOAD_CONFIG = GeneratorConfig(
    min_joins=2,
    max_joins=2,
    min_predicates=2,
    max_predicates=2,
    equality_weight=0.0,
    range_weight=1.0,
    in_weight=0.0,
    groupby_probability=0.0,
    aggregate_probability=0.0,
)


def scalar_results(optimizer, space):
    """The paper's literal procedure — one scalar ``Optimizer.optimize``
    per location, row-major: the oracle for the slab kernel."""
    return [
        optimizer.optimize(space.query, assignment=space.assignment_at(location))
        for location in space.locations()
    ]


def scalar_diagram(optimizer, space):
    """:func:`scalar_results` as the exhaustive diagram: the oracle for
    ``PlanDiagram.exhaustive``."""
    results = scalar_results(optimizer, space)
    plan_ids = np.array([r.plan_id for r in results], dtype=np.int64)
    costs = np.array([r.cost for r in results], dtype=float)
    return PlanDiagram(
        space,
        plan_ids.reshape(space.shape),
        costs.reshape(space.shape),
        optimizer.registry(space.query),
    )


def reference_field(bouquet, locations=None, crossing=None):
    """Optimized-bouquet total cost per location, one ``BouquetRunner``
    run each: the oracle for the sweep engine."""
    if locations is None:
        locations = bouquet.space.locations()
    return {
        loc: simulate_at(bouquet, loc, crossing=crossing).total_cost
        for loc in locations
    }


@pytest.fixture(scope="session")
def schema():
    return tpch_schema(SCALE)


@pytest.fixture(scope="session")
def database(schema):
    return Database.generate(schema, tpch_generator_spec(SCALE), seed=7)


@pytest.fixture(scope="session")
def statistics(database):
    return database.build_statistics(sample_size=1500, seed=3)


@pytest.fixture(scope="session")
def templated_generator(schema, database):
    return QueryGenerator(schema, database, TEMPLATED_WORKLOAD_CONFIG)


@pytest.fixture(scope="session")
def optimizer(schema, statistics):
    return Optimizer(schema, statistics)


@pytest.fixture(scope="session")
def eq_query(schema):
    return Query(
        "EQ",
        schema,
        ["lineitem", "orders", "part"],
        selections=[SelectionPredicate("part", "p_retailprice", "<", 1000.0)],
        joins=[
            JoinPredicate("part", "p_partkey", "lineitem", "l_partkey"),
            JoinPredicate("lineitem", "l_orderkey", "orders", "o_orderkey"),
        ],
    )


@pytest.fixture(scope="session")
def eq_space(eq_query, database):
    base = actual_selectivities(eq_query, database)
    dim = ErrorDimension(eq_query.selections[0].pid, 1e-4, 1.0, "p_retailprice")
    return SelectivitySpace(eq_query, [dim], 64, base)


@pytest.fixture(scope="session")
def eq_diagram(optimizer, eq_space):
    return PlanDiagram.exhaustive(optimizer, eq_space)


@pytest.fixture(scope="session")
def eq_bouquet(eq_diagram):
    from repro.core import identify_bouquet

    return identify_bouquet(eq_diagram)


@pytest.fixture(scope="session")
def lab():
    """A miniature Lab: tiny scale and coarse grids for fast multi-D tests."""
    return Lab(
        tpch_scale=0.002,
        tpcds_scale=0.002,
        stats_sample=1000,
        resolutions={1: 40, 2: 12, 3: 7, 4: 5, 5: 4},
    )
