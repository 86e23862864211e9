"""The carry-over: identity rebinding when no compile input moved, a
raise when one did, and bit-for-bit equivalence against fresh compiles."""

from __future__ import annotations

import pytest

from repro.api import BouquetConfig, Catalog, CompiledBouquet, compile_bouquet
from repro.drift import (
    bouquets_equal,
    moved_base_pids,
    patch_compiled,
    perturb_statistics,
)
from repro.ess.space import ErrorDimension
from repro.exceptions import BouquetError, DriftError
from repro.obs import MemorySink, Tracer
from repro.query.predicates import JoinPredicate, SelectionPredicate
from repro.query.query import Query
from repro.wlgen import QueryGenerator
from tests.conftest import optimizer_calls

CONFIG = BouquetConfig(resolution=12)


@pytest.fixture(scope="module")
def drift_query(schema):
    """EQ over three relations; its one error dimension is the selection."""
    return Query(
        "EQ_drift",
        schema,
        ["lineitem", "orders", "part"],
        selections=[SelectionPredicate("part", "p_retailprice", "<", 1000.0)],
        joins=[
            JoinPredicate("part", "p_partkey", "lineitem", "l_partkey"),
            JoinPredicate("lineitem", "l_orderkey", "orders", "o_orderkey"),
        ],
    )


@pytest.fixture(scope="module")
def old_world(schema, statistics, drift_query):
    """The pre-drift artifact, ETL-style (estimated base assignment)."""
    return compile_bouquet(
        drift_query, Catalog(schema, statistics=statistics), config=CONFIG
    )


# One perturbation per estimator pathway: dimension-pid drift and drift
# outside the query carry the artifact over; distinct-count drift on a
# join column moves a non-dimension base selectivity, and the patch
# raises so the caller recompiles.
PERTURBATIONS = [
    ("sel-dim-value", ("part", "p_retailprice"), dict(scale=1.2), "identity"),
    ("foreign-table", ("customer", None), dict(scale=1.3), "identity"),
    ("row-count-only", ("orders", None), dict(scale=1.0, row_scale=1.5), "identity"),
    ("join-col-value", ("orders", "o_orderkey"), dict(scale=1.4), "identity"),
    ("ndv-grow", ("part", "p_partkey"), dict(scale=1.0, distinct_scale=1.2), "raises"),
    ("ndv-shrink", ("part", "p_partkey"), dict(scale=1.0, distinct_scale=0.8), "raises"),
    ("ndv-lineitem", ("lineitem", "l_partkey"), dict(scale=1.0, distinct_scale=1.3), "raises"),
]


@pytest.mark.parametrize(
    "name,target,knobs,outcome", PERTURBATIONS, ids=[p[0] for p in PERTURBATIONS]
)
def test_delta_refresh_matches_full_rebuild(
    schema, statistics, drift_query, old_world, name, target, knobs, outcome
):
    """A refresh either carries the artifact over — bit-identical to a
    fresh compile, with zero optimizer work — or, when a base selectivity
    moved, raises before planning anything."""
    drifted = perturb_statistics(statistics, target[0], target[1], **knobs)
    catalog = Catalog(schema, statistics=drifted)
    tracer = Tracer(MemorySink())
    if outcome == "raises":
        with pytest.raises(DriftError) as excinfo:
            patch_compiled(old_world, catalog, tracer=tracer)
        assert excinfo.value.reason == "base-moved"
    else:
        patched = patch_compiled(old_world, catalog, tracer=tracer)
        reference = compile_bouquet(drift_query, catalog, config=CONFIG)
        assert bouquets_equal(patched.bouquet, reference.bouquet) == []
    assert optimizer_calls(tracer) == 0


def test_identity_patch_reuses_contours_and_plans(
    schema, statistics, drift_query, old_world
):
    drifted = perturb_statistics(statistics, "customer", None, scale=1.3)
    patched = patch_compiled(old_world, Catalog(schema, statistics=drifted))
    assert moved_base_pids(old_world.space, patched.space) == []
    assert patched.bouquet.plan_ids == old_world.bouquet.plan_ids
    assert patched.bouquet.budgets == old_world.bouquet.budgets
    assert patched.bouquet.contours == old_world.bouquet.contours
    # The rebound bouquet hangs off a *new* space, at the new base.
    assert patched.space is not old_world.space
    assert patched.bouquet.diagram.cache.space is patched.space


def test_identity_patch_recuts_contours_for_new_knobs(
    schema, statistics, drift_query, old_world
):
    """An artifact whose config asks for another ratio re-runs contour
    identification — still with zero optimizer work, since the diagram
    is unchanged — and matches a compile at that ratio."""
    drifted = perturb_statistics(statistics, "customer", None, scale=1.3)
    catalog = Catalog(schema, statistics=drifted)
    config = CONFIG.with_(ratio=3.0)
    stale = CompiledBouquet(drift_query, old_world.bouquet, config)
    tracer = Tracer(MemorySink())
    patched = patch_compiled(stale, catalog, tracer=tracer)
    assert optimizer_calls(tracer) == 0
    assert patched.bouquet.ratio == 3.0
    assert len(patched.bouquet.contours) != len(old_world.bouquet.contours)
    reference = compile_bouquet(drift_query, catalog, config=config)
    assert bouquets_equal(patched.bouquet, reference.bouquet) == []


def test_shape_mismatch_raises_drift_error(
    schema, statistics, drift_query, old_world
):
    catalog = Catalog(schema, statistics=statistics)
    smaller = CompiledBouquet(
        drift_query, old_world.bouquet, CONFIG.with_(resolution=10)
    )
    with pytest.raises(DriftError) as excinfo:
        patch_compiled(smaller, catalog)
    assert excinfo.value.reason == "grid-mismatch"
    join_pid = [j for j in drift_query.joins if "o_orderkey" in j.pid][0].pid
    two_dims = compile_bouquet(
        drift_query,
        catalog,
        config=CONFIG,
        dimensions=[
            old_world.space.dimensions[0],
            ErrorDimension(join_pid, 1e-7, 1e-3, "join"),
        ],
    )
    with pytest.raises(DriftError) as excinfo:
        patch_compiled(two_dims, catalog)
    assert excinfo.value.reason == "dimension-mismatch"


#: The statistics refreshes of the ledger's ``serve_churn`` workload.
CHURN_DRIFTS = [
    ("orders", "o_totalprice", 1.05),
    ("part", "p_retailprice", 1.10),
    ("lineitem", "l_quantity", 1.08),
    ("customer", "c_acctbal", 1.05),
]


@pytest.fixture(scope="module")
def generated_artifacts(schema, statistics, database):
    """Seed 7's first twelve default-mix generated queries, compiled in
    an ETL catalog, where value drift moves estimated base selectivities."""
    generator = QueryGenerator(schema, database)
    catalog = Catalog(schema, statistics=statistics)
    artifacts = []
    for index in range(12):
        query = generator.instantiate(7, index).query
        try:
            artifacts.append(
                compile_bouquet(query, catalog, config=BouquetConfig(resolution=8))
            )
        except BouquetError:
            continue  # no error dimension: nothing to carry over
    return artifacts


@pytest.mark.parametrize(
    "table,column,scale", CHURN_DRIFTS, ids=[d[0] for d in CHURN_DRIFTS]
)
def test_patch_is_a_fresh_compile_or_refuses(
    schema, statistics, generated_artifacts, table, column, scale
):
    """Property: after a refresh, every artifact either fails to patch
    with :class:`DriftError` or is bit-identical to compiling its query
    under the new statistics.  A re-plan of suspect locations once
    patched seed 7's query 7 under the ``lineitem`` drift into a bouquet
    whose plans differed from the compile's at 21 of 64 locations."""
    catalog = Catalog(
        schema, statistics=perturb_statistics(statistics, table, column, scale=scale)
    )
    carried = 0
    for compiled in generated_artifacts:
        try:
            patched = patch_compiled(compiled, catalog)
        except DriftError:
            continue
        reference = compile_bouquet(compiled.query, catalog, config=compiled.config)
        assert bouquets_equal(patched.bouquet, reference.bouquet) == [], (
            compiled.query.name
        )
        carried += 1
    assert carried > 0
