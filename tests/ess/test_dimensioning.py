"""Tests for error-dimension identification by uncertainty rules (§4.1)."""

from repro.ess.dimensioning import (
    Uncertainty,
    classify_predicate,
    select_error_dimensions,
)
from repro.query import JoinPredicate, Query


class TestClassification:
    def test_pk_fk_join_is_certain(self, eq_query, statistics):
        for join in eq_query.joins:
            assert (
                classify_predicate(eq_query, join.pid, statistics)
                is Uncertainty.NONE
            )

    def test_non_fk_join_is_high(self, schema, statistics):
        query = Query(
            "q",
            schema,
            ["lineitem", "partsupp"],
            joins=[JoinPredicate("lineitem", "l_suppkey", "partsupp", "ps_suppkey")],
        )
        assert (
            classify_predicate(query, query.joins[0].pid, statistics)
            is Uncertainty.HIGH
        )

    def test_range_with_histogram_is_low(self, eq_query, statistics):
        pid = eq_query.selections[0].pid
        assert classify_predicate(eq_query, pid, statistics) is Uncertainty.LOW

    def test_no_statistics_is_very_high(self, eq_query):
        pid = eq_query.selections[0].pid
        assert classify_predicate(eq_query, pid, None) is Uncertainty.VERY_HIGH

    def test_select_threshold_filters(self, eq_query, statistics):
        high = select_error_dimensions(eq_query, statistics, Uncertainty.HIGH)
        low = select_error_dimensions(eq_query, statistics, Uncertainty.LOW)
        everything = select_error_dimensions(eq_query, statistics, Uncertainty.NONE)
        assert set(high) <= set(low) <= set(everything)
        assert everything == eq_query.predicate_ids

