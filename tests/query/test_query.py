"""Unit tests for Query validation and accessors."""

import pytest

from repro.exceptions import QueryError
from repro.query import JoinPredicate, Query, SelectionPredicate


class TestValidation:
    def test_valid_query(self, eq_query):
        assert eq_query.join_graph.describe() == "chain(3)"
        assert len(eq_query.predicate_ids) == 3

    def test_rejects_duplicate_tables(self, schema):
        with pytest.raises(QueryError):
            Query("q", schema, ["part", "part"])

    def test_rejects_disconnected_join_graph(self, schema):
        with pytest.raises(QueryError):
            Query(
                "q",
                schema,
                ["part", "lineitem", "orders"],
                joins=[JoinPredicate("part", "p_partkey", "lineitem", "l_partkey")],
            )

    def test_rejects_unknown_column(self, schema):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):  # CatalogError from column lookup
            Query(
                "q",
                schema,
                ["part"],
                selections=[SelectionPredicate("part", "nope", "<", 1.0)],
            )

    def test_rejects_predicate_on_foreign_table(self, schema):
        with pytest.raises(QueryError):
            Query(
                "q",
                schema,
                ["part"],
                selections=[SelectionPredicate("orders", "o_totalprice", "<", 1.0)],
            )


class TestAccessors:
    def test_predicate_lookup(self, eq_query):
        pid = eq_query.selections[0].pid
        assert eq_query.predicate(pid) is eq_query.selections[0]
        with pytest.raises(QueryError):
            eq_query.predicate("sel:ghost")

    def test_selections_and_joins_on(self, eq_query):
        assert len(eq_query.selections_on("part")) == 1
        assert len(eq_query.selections_on("orders")) == 0

    def test_pk_fk_detection(self, eq_query):
        for join in eq_query.joins:
            assert eq_query.is_pk_fk_join(join)

    def test_describe_mentions_parts(self, eq_query):
        text = eq_query.describe()
        assert "EQ" in text and "chain(3)" in text and "p_retailprice" in text
