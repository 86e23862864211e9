"""Tests for the independent reference evaluator."""

import pytest

from repro.executor import ExecutionEngine
from repro.executor.arrays import qualify
from repro.executor.reference import (
    reference_group_counts,
    reference_row_count,
)
from repro.obs import MemorySink, Tracer
from repro.optimizer import Optimizer, actual_selectivities
from repro.query import parse_query


class TestReferenceEvaluator:
    def test_single_table_filter(self, database, schema):
        query = parse_query("select * from part where p_size < 10", schema)

        expected = int((database.column("part", "p_size") < 10).sum())
        assert reference_row_count(database, query) == expected

    def test_agrees_with_engine_on_eq(self, database, schema, eq_query):
        optimizer = Optimizer(schema)
        truth = actual_selectivities(eq_query, database)
        plan = optimizer.optimize(eq_query, assignment=truth).plan
        engine_rows = ExecutionEngine(database).execute(eq_query, plan).rows
        assert reference_row_count(database, eq_query) == engine_rows

    @staticmethod
    def engine_group_counts(database, schema, sql):
        """The engine's groups for ``sql`` under its optimal plan, keyed
        as the reference keys them, and the run's tracer counters."""
        query = parse_query(sql, schema)
        truth = actual_selectivities(query, database)
        plan = Optimizer(schema).optimize(query, assignment=truth).plan
        tracer = Tracer(MemorySink())
        result = ExecutionEngine(database, tracer=tracer).execute(query, plan, collect=True)
        names = [qualify(t, c) for t, c in query.group_by]
        keys = zip(*(result.result[name].tolist() for name in names))
        return query, dict(zip(keys, result.result["count"].tolist())), tracer.counters

    @staticmethod
    def group_by_sql(columns):
        return (
            "select count(*) from lineitem, part "
            "where p_partkey = l_partkey and p_retailprice < 1200 "
            f"group by {columns}"
        )

    def test_group_counts_agree_with_engine(self, database, schema):
        sql = self.group_by_sql("p_brand")
        query, engine_counts, counters = self.engine_group_counts(database, schema, sql)
        assert reference_group_counts(database, query) == engine_counts
        assert counters["executor.dense_groups"] == 1
        assert "executor.sorted_groups" not in counters

    @pytest.mark.parametrize("columns", ["l_quantity", "l_orderkey, l_partkey"])
    def test_sorted_group_counts_agree_with_engine(self, database, schema, columns):
        """A float key, and two int keys whose code space is far past
        the direct-address rule, are grouped by sorting — to the same
        groups as the reference's."""
        query, engine_counts, counters = self.engine_group_counts(
            database, schema, self.group_by_sql(columns)
        )
        assert len(engine_counts) > 1
        assert reference_group_counts(database, query) == engine_counts
        assert counters["executor.sorted_groups"] == 1
        assert "executor.dense_groups" not in counters

    def test_global_count(self, database, schema):
        query = parse_query("select count(*) from orders", schema)
        counts = reference_group_counts(database, query)
        assert counts == {(): schema.table("orders").row_count}
