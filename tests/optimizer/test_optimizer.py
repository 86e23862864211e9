"""Tests for DP join enumeration and the optimizer facade."""

import numpy as np
import pytest

from repro.optimizer import (
    COMMERCIAL_COST_MODEL,
    Optimizer,
    cost_plan,
)
from repro.optimizer.joinorder import access_paths
from repro.query import JoinPredicate, Query, SelectionPredicate


class TestAccessPaths:
    def test_always_offers_seq_scan(self, eq_query):
        paths = access_paths(eq_query, "orders")
        assert len(paths) == 1  # no selections -> seqscan only

    def test_index_paths_per_selection(self, eq_query):
        paths = access_paths(eq_query, "part")
        # seq scan + index scan on the one selection predicate
        assert len(paths) == 2


class TestEnumeration:
    def test_optimal_beats_every_candidate(self, optimizer, eq_query, statistics):
        """DP optimality: sanity-check against a few handmade plans."""
        from repro.optimizer import Join, SeqScan

        a = optimizer.estimated_assignment(eq_query)
        best = optimizer.optimize(eq_query, assignment=a)
        sel_pid = eq_query.selections[0].pid
        j_lp = next(j for j in eq_query.joins if "part" in j.tables).pid
        j_lo = next(j for j in eq_query.joins if "orders" in j.tables).pid
        handmade = [
            Join(
                "hash",
                Join("hash", SeqScan("lineitem"), SeqScan("orders"), (j_lo,)),
                SeqScan("part", (sel_pid,)),
                (j_lp,),
            ),
            Join(
                "merge",
                Join("nl", SeqScan("part", (sel_pid,)), SeqScan("lineitem"), (j_lp,)),
                SeqScan("orders"),
                (j_lo,),
            ),
        ]
        for plan in handmade:
            est = cost_plan(plan, optimizer.schema, optimizer.cost_model, a)
            assert best.cost <= est.cost * (1 + 1e-9)

    def test_plan_depends_on_selectivities(self, optimizer, eq_query):
        sel_pid = eq_query.selections[0].pid
        low = optimizer.optimize(eq_query, injected={sel_pid: 1e-4})
        high = optimizer.optimize(eq_query, injected={sel_pid: 0.9})
        assert low.signature != high.signature

    def test_plan_registry_stable_ids(self, optimizer, eq_query):
        sel_pid = eq_query.selections[0].pid
        a = optimizer.optimize(eq_query, injected={sel_pid: 1e-4})
        b = optimizer.optimize(eq_query, injected={sel_pid: 1.1e-4})
        if a.signature == b.signature:
            assert a.plan_id == b.plan_id

    def test_single_table_query(self, optimizer, schema):
        query = Query(
            "single",
            schema,
            ["part"],
            selections=[SelectionPredicate("part", "p_size", "<", 5.0)],
        )
        result = optimizer.optimize(query)
        assert result.cost > 0
        assert result.plan.tables() == frozenset(("part",))

    def test_six_way_join_enumerates(self, optimizer, schema):
        query = Query(
            "six",
            schema,
            ["region", "nation", "customer", "orders", "lineitem", "supplier"],
            joins=[
                JoinPredicate("nation", "n_regionkey", "region", "r_regionkey"),
                JoinPredicate("customer", "c_nationkey", "nation", "n_nationkey"),
                JoinPredicate("orders", "o_custkey", "customer", "c_custkey"),
                JoinPredicate("lineitem", "l_orderkey", "orders", "o_orderkey"),
                JoinPredicate("lineitem", "l_suppkey", "supplier", "s_suppkey"),
            ],
        )
        result = optimizer.optimize(query)
        assert result.plan.tables() == frozenset(query.tables)

    def test_no_cross_products(self, optimizer, eq_query):
        """Every join node must carry at least one join predicate."""
        from repro.optimizer import Join

        result = optimizer.optimize(eq_query)
        for node in result.plan.postorder():
            if isinstance(node, Join):
                assert node.join_pids


class TestCostModels:
    def test_commercial_model_changes_plan_space(self, schema, statistics, eq_query):
        pg = Optimizer(schema, statistics)
        com = Optimizer(schema, statistics, COMMERCIAL_COST_MODEL)
        sel_pid = eq_query.selections[0].pid
        pg_sigs = set()
        com_sigs = set()
        for s in np.logspace(-4, 0, 20):
            pg_sigs.add(pg.optimize(eq_query, injected={sel_pid: float(s)}).signature)
            com_sigs.add(com.optimize(eq_query, injected={sel_pid: float(s)}).signature)
        assert pg_sigs != com_sigs

    def test_merge_join_respects_disable_flag(self, schema, statistics, eq_query):
        com = Optimizer(schema, statistics, COMMERCIAL_COST_MODEL)
        sel_pid = eq_query.selections[0].pid
        for s in np.logspace(-4, 0, 10):
            result = com.optimize(eq_query, injected={sel_pid: float(s)})
            assert "MJ(" not in result.signature


class TestAbstractCosting:
    def test_cost_matches_optimize_at_same_point(self, optimizer, eq_query):
        a = optimizer.estimated_assignment(eq_query)
        result = optimizer.optimize(eq_query, assignment=a)
        re_cost = cost_plan(result.plan, optimizer.schema, optimizer.cost_model, a)
        assert re_cost.cost == pytest.approx(result.cost)
        assert re_cost.rows == pytest.approx(result.rows)
