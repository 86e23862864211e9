"""The delta refresh engine: identity rebinding, suspect re-planning,
and bit-for-bit equivalence against from-scratch rebuilds."""

from __future__ import annotations

import pytest

from repro.core.bouquet import identify_bouquet
from repro.core.maintenance import refresh_bouquet
from repro.drift import (
    bouquets_equal,
    delta_refresh,
    moved_base_pids,
    perturb_statistics,
)
from repro.ess.diagram import PlanDiagram
from repro.ess.space import ErrorDimension, SelectivitySpace
from repro.exceptions import BouquetError, DriftError
from repro.optimizer.cost_model import POSTGRES_COST_MODEL
from repro.optimizer.optimizer import Optimizer
from repro.query.predicates import JoinPredicate, SelectionPredicate
from repro.query.query import Query

RESOLUTION = 12
LAMBDA = 0.2
RATIO = 2.0


@pytest.fixture(scope="module")
def drift_query(schema):
    """EQ with a 2D error space: the selection plus the orders join."""
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
def drift_dims(drift_query):
    join_pid = [j for j in drift_query.joins if "o_orderkey" in j.pid][0].pid
    return [
        ErrorDimension(drift_query.selections[0].pid, 1e-4, 1.0, "sel"),
        ErrorDimension(join_pid, 1e-7, 1e-3, "join"),
    ]


@pytest.fixture(scope="module")
def old_world(schema, statistics, drift_query, drift_dims):
    """The pre-drift bouquet, ETL-style (estimated base assignment)."""
    optimizer = Optimizer(schema, statistics, POSTGRES_COST_MODEL)
    base = optimizer.estimated_assignment(drift_query)
    space = SelectivitySpace(drift_query, drift_dims, RESOLUTION, base)
    diagram = PlanDiagram.exhaustive(optimizer, space)
    return identify_bouquet(diagram, lambda_=LAMBDA, ratio=RATIO)


def _refresh_and_reference(schema, drifted, old_bouquet, query, dims):
    optimizer = Optimizer(schema, drifted, POSTGRES_COST_MODEL)
    base = optimizer.estimated_assignment(query)
    space = SelectivitySpace(query, dims, RESOLUTION, base)
    result = delta_refresh(
        old_bouquet, optimizer, space, lambda_=LAMBDA, ratio=RATIO
    )
    ref_optimizer = Optimizer(schema, drifted, POSTGRES_COST_MODEL)
    ref_space = SelectivitySpace(query, dims, RESOLUTION, base)
    ref_diagram = PlanDiagram.exhaustive(ref_optimizer, ref_space)
    reference = identify_bouquet(ref_diagram, lambda_=LAMBDA, ratio=RATIO)
    return result, reference


# One perturbation per estimator pathway: dimension-pid drift and drift
# outside the query collapse to the identity patch; distinct-count drift
# on a join column moves the base and takes the delta path.
PERTURBATIONS = [
    ("sel-dim-value", ("part", "p_retailprice"), dict(scale=1.2), "identity"),
    ("foreign-table", ("customer", None), dict(scale=1.3), "identity"),
    ("row-count-only", ("orders", None), dict(scale=1.0, row_scale=1.5), "identity"),
    ("join-col-value", ("orders", "o_orderkey"), dict(scale=1.4), "identity"),
    ("ndv-grow", ("part", "p_partkey"), dict(scale=1.0, distinct_scale=1.2), "delta"),
    ("ndv-shrink", ("part", "p_partkey"), dict(scale=1.0, distinct_scale=0.8), "delta"),
    ("ndv-lineitem", ("lineitem", "l_partkey"), dict(scale=1.0, distinct_scale=1.3), "delta"),
]


@pytest.mark.parametrize(
    "name,target,knobs,strategy", PERTURBATIONS, ids=[p[0] for p in PERTURBATIONS]
)
def test_delta_refresh_matches_full_rebuild(
    schema, statistics, drift_query, drift_dims, old_world,
    name, target, knobs, strategy,
):
    """Property: for localized drift, the delta refresh is bit-identical
    to a from-scratch rebuild while planning far fewer locations."""
    drifted = perturb_statistics(statistics, target[0], target[1], **knobs)
    result, reference = _refresh_and_reference(
        schema, drifted, old_world, drift_query, drift_dims
    )
    assert result.strategy == strategy
    assert bouquets_equal(result.bouquet, reference) == []
    if strategy == "identity":
        assert result.planned_locations == 0
    else:
        assert 0 < result.planned_locations < result.total_locations
        assert result.planned_fraction < 0.5
    assert "delta refresh" in result.describe()


def test_identity_patch_reuses_contours_and_plans(
    schema, statistics, drift_query, drift_dims, old_world
):
    drifted = perturb_statistics(statistics, "customer", None, scale=1.3)
    optimizer = Optimizer(schema, drifted, POSTGRES_COST_MODEL)
    base = optimizer.estimated_assignment(drift_query)
    space = SelectivitySpace(drift_query, drift_dims, RESOLUTION, base)
    assert moved_base_pids(old_world.space, space) == []
    result = delta_refresh(old_world, optimizer, space)
    assert result.strategy == "identity"
    assert result.planned_locations == 0
    assert result.bouquet.plan_ids == old_world.plan_ids
    assert result.bouquet.budgets == old_world.budgets
    # The rebound bouquet hangs off the *new* space/optimizer.
    assert result.bouquet.space is space


def test_identity_patch_recuts_contours_for_new_knobs(
    schema, statistics, drift_query, drift_dims, old_world
):
    """Changing lambda/ratio re-runs contour identification — still with
    zero optimizer work, since the diagram is unchanged."""
    drifted = perturb_statistics(statistics, "customer", None, scale=1.3)
    optimizer = Optimizer(schema, drifted, POSTGRES_COST_MODEL)
    base = optimizer.estimated_assignment(drift_query)
    space = SelectivitySpace(drift_query, drift_dims, RESOLUTION, base)
    result = delta_refresh(old_world, optimizer, space, ratio=3.0)
    assert result.planned_locations == 0
    assert result.bouquet.ratio == 3.0
    assert len(result.bouquet.contours) != len(old_world.contours)


def test_shape_mismatch_raises_drift_error(
    schema, statistics, drift_query, drift_dims, old_world
):
    optimizer = Optimizer(schema, statistics, POSTGRES_COST_MODEL)
    base = optimizer.estimated_assignment(drift_query)
    smaller = SelectivitySpace(drift_query, drift_dims, RESOLUTION - 2, base)
    with pytest.raises(DriftError):
        delta_refresh(old_world, optimizer, smaller)
    one_dim = SelectivitySpace(drift_query, drift_dims[:1], RESOLUTION, base)
    with pytest.raises(DriftError):
        delta_refresh(old_world, optimizer, one_dim)


def test_refresh_bouquet_routes_to_delta_engine(
    schema, statistics, drift_query, drift_dims, old_world
):
    """core.maintenance picks the delta engine when the ESS shape is
    unchanged, and reports its strategy/accounting."""
    drifted = perturb_statistics(
        statistics, "part", "p_partkey", scale=1.0, distinct_scale=1.2
    )
    optimizer = Optimizer(schema, drifted, POSTGRES_COST_MODEL)
    base = optimizer.estimated_assignment(drift_query)
    space = SelectivitySpace(drift_query, drift_dims, RESOLUTION, base)
    result = refresh_bouquet(old_world, optimizer, space)
    assert result.strategy == "delta"
    assert 0 < result.optimizer_calls < space.size
    assert result.reused_plan_count > 0

    # A changed grid is not a refresh: the caller recompiles.
    smaller = SelectivitySpace(drift_query, drift_dims, RESOLUTION - 2, base)
    with pytest.raises(BouquetError):
        refresh_bouquet(old_world, optimizer, smaller)
