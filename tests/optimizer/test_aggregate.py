"""Tests for aggregation: plan node, optimizer wrapping, parser, executor."""

import numpy as np
import pytest

from repro.executor import ExecutionEngine
from repro.exceptions import OptimizerError, QueryError
from repro.optimizer import (
    Aggregate,
    IndexLookup,
    SeqScan,
    cost_plan,
    explain,
    plans_from_table,
    plans_to_table,
)
from repro.optimizer.cost_model import POSTGRES_COST_MODEL
from repro.query import Query, SelectionPredicate, parse_query


class TestAggregateNode:
    def test_global_count_one_row(self, schema, eq_query):
        plan = Aggregate(SeqScan("part"))
        est = cost_plan(plan, schema, POSTGRES_COST_MODEL, {})
        assert est.rows == 1.0
        assert est.cost > 0

    def test_group_limit_caps_output(self, schema):
        # p_size is uniform in [1, 50]: the distinct hint caps groups.
        from repro.catalog.schema import Column, Schema, Table

        table = Table(
            "t", [Column("k", distinct=5), Column("v", "float")], 1000, "k"
        )
        little_schema = Schema("s", [table])
        plan = Aggregate(SeqScan("t"), (("t", "k"),))
        est = cost_plan(plan, little_schema, POSTGRES_COST_MODEL, {})
        assert est.rows == 5.0

    def test_no_hint_falls_back_to_table_rows(self, schema):
        plan = Aggregate(SeqScan("part"), (("part", "p_size"),))
        est = cost_plan(plan, schema, POSTGRES_COST_MODEL, {})
        assert est.rows <= schema.table("part").row_count

    def test_monotone_in_selectivity(self, schema, eq_query):
        pid = eq_query.selections[0].pid
        plan = Aggregate(SeqScan("part", (pid,)), (("part", "p_size"),))
        low = cost_plan(plan, schema, POSTGRES_COST_MODEL, {pid: 0.01})
        high = cost_plan(plan, schema, POSTGRES_COST_MODEL, {pid: 0.9})
        assert high.cost >= low.cost
        assert high.rows >= low.rows

    def test_rejects_index_lookup_child(self):
        with pytest.raises(OptimizerError):
            Aggregate(IndexLookup("part", "p_partkey"))

    def test_roundtrips_through_serialization(self):
        plan = Aggregate(SeqScan("part"), (("part", "p_brand"),))
        (rebuilt,) = plans_from_table(*plans_to_table([plan]))
        assert rebuilt.signature() == plan.signature()


class TestQueryIntegration:
    def test_group_by_validated(self, schema):
        with pytest.raises(QueryError):
            Query("q", schema, ["part"], group_by=[("orders", "o_orderkey")])

    def test_optimizer_wraps_plan(self, optimizer, schema):
        query = Query(
            "agg_q",
            schema,
            ["part"],
            selections=[SelectionPredicate("part", "p_size", "<", 25.0)],
            group_by=[("part", "p_brand")],
        )
        result = optimizer.optimize(query)
        assert isinstance(result.plan, Aggregate)
        assert result.plan.group_columns == (("part", "p_brand"),)

    def test_sql_group_by_parses(self, schema):
        query = parse_query(
            "select count(*) from part where p_size < 25 group by p_brand",
            schema,
        )
        assert query.aggregate
        assert query.group_by == (("part", "p_brand"),)

    def test_sql_global_count_aggregates(self, schema):
        query = parse_query("select count(*) from part", schema)
        assert query.aggregate and not query.group_by

    def test_explain_labels_aggregate(self, optimizer, schema):
        query = parse_query(
            "select count(*) from part group by p_brand", schema
        )
        result = optimizer.optimize(query)
        text = explain(
            result.plan,
            schema,
            optimizer.cost_model,
            optimizer.estimated_assignment(query),
        )
        assert "HashAggregate" in text


class TestAggregateExecution:
    def test_global_count_matches_numpy(self, database, schema):
        engine = ExecutionEngine(database)
        query = parse_query("select count(*) from part where p_size < 25", schema)
        from repro.optimizer import Optimizer

        optimizer = Optimizer(schema)
        result = engine.execute(query, optimizer.optimize(query).plan, collect=True)
        expected = int((database.column("part", "p_size") < 25).sum())
        assert result.rows == 1
        assert int(result.result["count"][0]) == expected

    def test_grouped_counts_match_numpy(self, database, schema):
        engine = ExecutionEngine(database)
        query = parse_query(
            "select count(*) from part where p_size < 25 group by p_brand", schema
        )
        from repro.optimizer import Optimizer

        optimizer = Optimizer(schema)
        result = engine.execute(query, optimizer.optimize(query).plan, collect=True)
        sizes = database.column("part", "p_size")
        brands = database.column("part", "p_brand")[sizes < 25]
        uniques, counts = np.unique(brands, return_counts=True)
        assert result.rows == uniques.size
        got = dict(zip(result.result["part.p_brand"].tolist(), result.result["count"].tolist()))
        expected = dict(zip(uniques.tolist(), counts.tolist()))
        assert got == expected

    def test_grouped_join_aggregate(self, database, schema):
        """COUNT per brand over the EQ join pipeline, vs brute force."""
        engine = ExecutionEngine(database)
        sql = (
            "select count(*) from lineitem, part "
            "where p_partkey = l_partkey and p_retailprice < 1000 "
            "group by p_brand"
        )
        query = parse_query(sql, schema)
        from repro.optimizer import Optimizer, actual_selectivities

        optimizer = Optimizer(schema)
        truth = actual_selectivities(query, database)
        plan = optimizer.optimize(query, assignment=truth).plan
        result = engine.execute(query, plan, collect=True)
        # Brute force with numpy.
        part = database.table("part")
        lineitem = database.table("lineitem")
        cheap = part["p_retailprice"] < 1000
        brand_of = dict(zip(part["p_partkey"].tolist(), part["p_brand"].tolist()))
        cheap_keys = set(part["p_partkey"][cheap].tolist())
        from collections import Counter

        counter = Counter(
            brand_of[k] for k in lineitem["l_partkey"].tolist() if k in cheap_keys
        )
        got = dict(
            zip(result.result["part.p_brand"].tolist(), result.result["count"].tolist())
        )
        assert got == dict(counter)

    def test_budgeted_aggregate_aborts(self, database, schema):
        engine = ExecutionEngine(database)
        query = parse_query("select count(*) from lineitem", schema)
        from repro.optimizer import Optimizer

        optimizer = Optimizer(schema)
        plan = optimizer.optimize(query).plan
        full = engine.execute(query, plan)
        partial = engine.execute(query, plan, budget=full.spent / 2)
        assert not partial.completed


class TestAggregateBouquet:
    def test_end_to_end_bouquet_on_aggregate_query(self, database, statistics, schema):
        """The whole pipeline works with an aggregate on top: error nodes
        sit below the Aggregate, so discovery is unaffected."""
        from repro.api import BouquetConfig, Catalog, compile_bouquet, execute

        catalog = Catalog(schema, statistics=statistics, database=database)
        compiled = compile_bouquet(
            "select count(*) from lineitem, orders, part "
            "where p_partkey = l_partkey and l_orderkey = o_orderkey "
            "and p_retailprice < 1000 group by p_brand",
            catalog,
            config=BouquetConfig(resolution=24),
        )
        result = execute(compiled, database, mode="optimized")
        assert result.completed
        # Rows = number of brands among qualifying parts.
        engine = ExecutionEngine(database)
        reference = engine.execute(
            compiled.query,
            compiled.bouquet.registry.plan(compiled.bouquet.plan_ids[-1]),
        )
        assert result.result_rows == reference.rows
