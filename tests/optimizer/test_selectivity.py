"""Tests for selectivity estimation, ground truth, and injection."""

import pytest

from repro.catalog.statistics import MAGIC_EQUALITY_SELECTIVITY, MAGIC_RANGE_SELECTIVITY
from repro.exceptions import QueryError
from repro.optimizer.selectivity import (
    actual_selectivities,
    estimate_selectivities,
    inject,
)
from tests.conftest import validate_assignment


class TestEstimation:
    def test_estimates_cover_all_predicates(self, eq_query, statistics):
        est = estimate_selectivities(eq_query, statistics)
        assert set(est) == set(eq_query.predicate_ids)
        for value in est.values():
            assert 0 < value <= 1

    def test_magic_numbers_without_stats(self, eq_query):
        est = estimate_selectivities(eq_query, None)
        sel_pid = eq_query.selections[0].pid
        assert est[sel_pid] == pytest.approx(MAGIC_RANGE_SELECTIVITY)
        for join in eq_query.joins:
            assert est[join.pid] == pytest.approx(MAGIC_EQUALITY_SELECTIVITY)

    def test_range_estimate_close_to_actual_for_uniform_column(
        self, eq_query, statistics, database
    ):
        est = estimate_selectivities(eq_query, statistics)
        act = actual_selectivities(eq_query, database)
        sel_pid = eq_query.selections[0].pid
        # p_retailprice is uniform, so even sampled stats estimate it well.
        assert est[sel_pid] == pytest.approx(act[sel_pid], rel=0.3)

    def test_pk_fk_join_estimated_exactly(self, schema, statistics, database):
        """PK-FK joins with the full PK side participating are estimated
        accurately (§8) — skew does not matter because every FK row
        matches exactly one PK row."""
        from repro.query import JoinPredicate, Query

        query = Query(
            "pkfkq",
            schema,
            ["lineitem", "part"],
            joins=[JoinPredicate("lineitem", "l_partkey", "part", "p_partkey")],
        )
        pid = query.joins[0].pid
        est = estimate_selectivities(query, statistics)
        act = actual_selectivities(query, database)
        assert act[pid] == pytest.approx(1.0 / schema.table("part").row_count)
        assert est[pid] == pytest.approx(act[pid], rel=0.3)

    def test_non_pk_fk_join_estimate_errs(self, schema, statistics, database):
        """Joins that are not clean full-PK joins break the uniformity-based
        1/max(ndv) formula — the error source that motivates the paper.
        (Here only part of the ps_partkey domain matches l_partkey.)"""
        from repro.query import JoinPredicate, Query

        query = Query(
            "skewq",
            schema,
            ["lineitem", "partsupp"],
            joins=[JoinPredicate("lineitem", "l_partkey", "partsupp", "ps_partkey")],
        )
        pid = query.joins[0].pid
        est = estimate_selectivities(query, statistics)[pid]
        act = actual_selectivities(query, database)[pid]
        relative_error = abs(est - act) / act
        assert relative_error > 0.1


class TestActuals:
    def test_actuals_cover_all_predicates(self, eq_query, database):
        act = actual_selectivities(eq_query, database)
        assert set(act) == set(eq_query.predicate_ids)

    def test_pk_fk_actual_is_reciprocal(self, eq_query, database, schema):
        act = actual_selectivities(eq_query, database)
        j_lo = next(j for j in eq_query.joins if "orders" in j.tables)
        assert act[j_lo.pid] == pytest.approx(
            1.0 / schema.table("orders").row_count
        )


class TestInjection:
    def test_inject_overrides(self, eq_query, statistics):
        base = estimate_selectivities(eq_query, statistics)
        pid = eq_query.selections[0].pid
        merged = inject(base, {pid: 0.42})
        assert merged[pid] == pytest.approx(0.42)
        assert base[pid] != merged[pid]

    def test_inject_clamps(self, eq_query, statistics):
        base = estimate_selectivities(eq_query, statistics)
        pid = eq_query.selections[0].pid
        assert inject(base, {pid: 5.0})[pid] == 1.0
        assert inject(base, {pid: 0.0})[pid] > 0.0

    def test_inject_unknown_pid_rejected(self, eq_query, statistics):
        base = estimate_selectivities(eq_query, statistics)
        with pytest.raises(QueryError):
            inject(base, {"sel:ghost": 0.5})


class TestValidation:
    def test_missing_pid_rejected(self, eq_query, statistics):
        base = estimate_selectivities(eq_query, statistics)
        base.pop(eq_query.selections[0].pid)
        with pytest.raises(QueryError):
            validate_assignment(eq_query, base)

    def test_out_of_range_rejected(self, eq_query, statistics):
        base = estimate_selectivities(eq_query, statistics)
        base[eq_query.selections[0].pid] = 1.5
        with pytest.raises(QueryError):
            validate_assignment(eq_query, base)


class TestPerPredicateEstimators:
    def test_estimate_selection_direct(self, eq_query, statistics):
        from repro.optimizer.selectivity import estimate_selection

        sel = eq_query.selections[0]
        value = estimate_selection(sel, statistics)
        assert 0 < value <= 1
        assert estimate_selection(sel, None) == pytest.approx(1.0 / 3.0)

    def test_estimate_join_direct(self, eq_query, statistics):
        from repro.optimizer.selectivity import estimate_join

        join = eq_query.joins[0]
        value = estimate_join(join, statistics)
        assert 0 < value <= 1
        assert estimate_join(join, None) == pytest.approx(0.1)
