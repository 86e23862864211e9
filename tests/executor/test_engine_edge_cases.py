"""Edge-case tests for the execution engine."""

import pytest

from repro.exceptions import ExecutionError
from repro.executor import ExecutionEngine
from repro.optimizer import (
    IndexLookup,
    IndexScan,
    Join,
    Optimizer,
    SeqScan,
    actual_selectivities,
)
from repro.query import JoinPredicate, Query, SelectionPredicate, parse_query


@pytest.fixture(scope="module")
def engine(database):
    return ExecutionEngine(database, batch_size=512)


class TestEmptyResults:
    def test_empty_selection(self, engine, schema):
        query = parse_query(
            "select * from part where p_retailprice < 0", schema
        )
        plan = SeqScan("part", (query.selections[0].pid,))
        result = engine.execute(query, plan, collect=True)
        assert result.completed and result.rows == 0
        assert result.result is None  # nothing collected

    def test_join_with_empty_side(self, engine, schema):
        query = Query(
            "empty_join",
            schema,
            ["part", "lineitem"],
            selections=[SelectionPredicate("part", "p_retailprice", "<", 0.0)],
            joins=[JoinPredicate("part", "p_partkey", "lineitem", "l_partkey")],
        )
        sel = query.selections[0].pid
        jp = query.joins[0].pid
        for algo in ("hash", "merge", "nl"):
            plan = Join(algo, SeqScan("lineitem"), SeqScan("part", (sel,)), (jp,))
            result = engine.execute(query, plan)
            assert result.completed and result.rows == 0, algo

    def test_inl_with_empty_outer(self, engine, schema):
        query = Query(
            "empty_inl",
            schema,
            ["part", "lineitem"],
            selections=[SelectionPredicate("part", "p_retailprice", "<", 0.0)],
            joins=[JoinPredicate("part", "p_partkey", "lineitem", "l_partkey")],
        )
        sel = query.selections[0].pid
        jp = query.joins[0].pid
        plan = Join(
            "inl",
            SeqScan("part", (sel,)),
            IndexLookup("lineitem", "l_partkey"),
            (jp,),
        )
        result = engine.execute(query, plan)
        assert result.completed and result.rows == 0


class TestBatchBoundaries:
    @pytest.mark.parametrize("batch_size", [1, 7, 100, 10_000, 1_000_000])
    def test_row_counts_invariant_to_batch_size(self, database, schema, batch_size):
        query = parse_query(
            "select * from lineitem, orders where l_orderkey = o_orderkey "
            "and o_totalprice < 100000",
            schema,
        )
        optimizer = Optimizer(schema)
        truth = actual_selectivities(query, database)
        plan = optimizer.optimize(query, assignment=truth).plan
        engine = ExecutionEngine(database, batch_size=batch_size)
        reference = ExecutionEngine(database).execute(query, plan).rows
        assert engine.execute(query, plan).rows == reference

    @pytest.mark.parametrize("batch_size", [64, 4096])
    def test_costs_stable_across_batch_sizes(self, database, schema, batch_size):
        query = parse_query("select * from lineitem", schema)
        plan = SeqScan("lineitem")
        spent = ExecutionEngine(database, batch_size=batch_size).execute(query, plan).spent
        reference = ExecutionEngine(database).execute(query, plan).spent
        assert spent == pytest.approx(reference, rel=1e-9)


class TestCompositeJoins:
    def test_two_predicates_same_table_pair(self, engine, database, schema):
        """A composite join keyed on one predicate with the second applied
        as a post-filter must match brute force."""
        query = Query(
            "composite",
            schema,
            ["lineitem", "partsupp"],
            joins=[
                JoinPredicate("lineitem", "l_partkey", "partsupp", "ps_partkey"),
                JoinPredicate("lineitem", "l_suppkey", "partsupp", "ps_suppkey"),
            ],
        )
        pids = tuple(sorted(j.pid for j in query.joins))
        plan = Join("hash", SeqScan("lineitem"), SeqScan("partsupp"), pids)
        result = engine.execute(query, plan)
        left_pk = database.column("lineitem", "l_partkey")
        left_sk = database.column("lineitem", "l_suppkey")
        right_pk = database.column("partsupp", "ps_partkey")
        right_sk = database.column("partsupp", "ps_suppkey")
        pairs = {}
        for pk, sk in zip(right_pk.tolist(), right_sk.tolist()):
            pairs[(pk, sk)] = pairs.get((pk, sk), 0) + 1
        expected = sum(
            pairs.get((pk, sk), 0) for pk, sk in zip(left_pk.tolist(), left_sk.tolist())
        )
        assert result.rows == expected


class TestInstrumentationConsistency:
    def test_total_cost_equals_sum_of_node_costs(self, engine, schema, eq_query):
        sel = eq_query.selections[0].pid
        j_lp = next(j for j in eq_query.joins if "part" in j.tables).pid
        j_lo = next(j for j in eq_query.joins if "orders" in j.tables).pid
        plan = Join(
            "hash",
            Join("hash", SeqScan("lineitem"), SeqScan("orders"), (j_lo,)),
            SeqScan("part", (sel,)),
            (j_lp,),
        )
        result = engine.execute(eq_query, plan)
        inst = result.instrumentation
        node_total = sum(c.cost for c in inst._counters.values())
        assert inst.total_cost == pytest.approx(node_total)

    def test_partial_rows_below_full(self, engine, schema, eq_query):
        sel = eq_query.selections[0].pid
        plan = IndexScan("part", sel)
        full = engine.execute(eq_query, plan)
        partial = engine.execute(eq_query, plan, budget=full.spent / 2)
        assert partial.rows <= full.rows
        node_counts = partial.instrumentation.tuples_out(plan)
        assert node_counts == partial.rows


class TestTpcdsExecution:
    def test_star_join_executes(self, lab):
        """The DS star query runs end to end on the DS engine."""
        ql = lab.build("3D_DS_Q96")
        engine = ExecutionEngine(lab.ds_db)
        plan = ql.bouquet.registry.plan(ql.bouquet.plan_ids[-1])
        result = engine.execute(ql.workload.query, plan)
        assert result.completed
        assert result.rows > 0


class TestIndexScanOperators:
    def test_in_predicate_is_refused_not_answered_as_a_range(self, engine, schema):
        """An ``in`` IndexScan cannot come out of ``access_paths`` but can
        be built by hand or read back from a stored envelope; it used to
        return the rows ``>= value`` without complaint."""
        pred = SelectionPredicate("part", "p_size", "in", (3, 5))
        query = Query("in_scan", schema, ["part"], selections=[pred])
        with pytest.raises(ExecutionError, match="'in'"):
            engine.execute(query, IndexScan("part", pred.pid))
        # The same predicate as a filter is answered.
        assert engine.execute(query, SeqScan("part", (pred.pid,))).rows > 0

    @pytest.mark.parametrize("op", ["=", "<", "<=", ">", ">="])
    def test_range_operators_agree_with_a_filtered_scan(self, engine, schema, op):
        pred = SelectionPredicate("part", "p_size", op, 25)
        query = Query("range_scan", schema, ["part"], selections=[pred])
        indexed = engine.execute(query, IndexScan("part", pred.pid))
        scanned = engine.execute(query, SeqScan("part", (pred.pid,)))
        assert indexed.rows == scanned.rows > 0


class TestProjectionPushdown:
    def test_aggregate_queries_prune_columns(self, database, schema):
        """COUNT queries only carry join/predicate/group columns through
        the pipeline; results are unchanged."""
        from repro.executor.engine import needed_columns
        from repro.optimizer import Optimizer, actual_selectivities
        from repro.query import parse_query

        sql = (
            "select count(*) from lineitem, orders, part "
            "where p_partkey = l_partkey and l_orderkey = o_orderkey "
            "and p_retailprice < 1000 group by p_brand"
        )
        query = parse_query(sql, schema)
        needed = needed_columns(query)
        assert "part.p_brand" in needed
        assert "lineitem.l_partkey" in needed
        assert "lineitem.l_shipmode" not in needed  # pruned

        optimizer = Optimizer(schema)
        truth = actual_selectivities(query, database)
        plan = optimizer.optimize(query, assignment=truth).plan
        engine = ExecutionEngine(database)
        pruned = engine.execute(query, plan, collect=True)
        assert pruned.completed
        assert "count" in pruned.result

    def test_select_star_keeps_all_columns(self, database, schema):
        from repro.executor.engine import needed_columns
        from repro.query import parse_query

        query = parse_query("select * from part where p_size < 10", schema)
        assert needed_columns(query) is None
        engine = ExecutionEngine(database)
        from repro.optimizer import SeqScan

        result = engine.execute(
            query, SeqScan("part", (query.selections[0].pid,)), collect=True
        )
        # Every part column survives to the output.
        for column in schema.table("part").column_names:
            assert f"part.{column}" in result.result
