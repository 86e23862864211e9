"""Tests for the §8 deployment advisor."""

from repro.core.advisor import (
    ProcessingMode,
    recommend_processing_mode,
)
from repro.query import JoinPredicate, Query, parse_query


class TestRecommendations:
    def test_update_queries_stay_native(self, eq_query, statistics):
        rec = recommend_processing_mode(eq_query, statistics, read_only=False)
        assert rec.mode is ProcessingMode.NATIVE
        assert any("update" in r for r in rec.rationale)

    def test_latency_sensitive_stays_native(self, eq_query, statistics):
        rec = recommend_processing_mode(
            eq_query, statistics, latency_sensitive=True
        )
        assert rec.mode is ProcessingMode.NATIVE

    def test_accurately_estimable_query_stays_native(self, schema, statistics):
        # Pure PK-FK join + histogram-covered range filter: all <= LOW.
        query = parse_query(
            "select * from lineitem, orders where l_orderkey = o_orderkey "
            "and o_totalprice < 100000",
            schema,
        )
        rec = recommend_processing_mode(query, statistics)
        assert rec.mode is ProcessingMode.NATIVE

    def test_no_statistics_means_bouquet(self, eq_query):
        rec = recommend_processing_mode(eq_query, None)
        assert rec.mode is ProcessingMode.BOUQUET

    def test_non_fk_join_means_bouquet(self, schema, statistics):
        query = Query(
            "mn",
            schema,
            ["lineitem", "partsupp"],
            joins=[JoinPredicate("lineitem", "l_suppkey", "partsupp", "ps_suppkey")],
        )
        rec = recommend_processing_mode(query, statistics)
        assert rec.mode is ProcessingMode.BOUQUET

    def test_describe(self, eq_query):
        rec = recommend_processing_mode(eq_query, None)
        text = rec.describe()
        assert "recommended mode: bouquet" in text
        assert "-" in text
