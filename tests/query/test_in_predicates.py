"""Tests for IN-list predicate support across the stack."""

import numpy as np
import pytest

from repro.executor import ExecutionEngine
from repro.executor.reference import reference_row_count
from repro.exceptions import QueryError
from repro.optimizer import Optimizer, SeqScan, actual_selectivities
from repro.optimizer.selectivity import estimate_selection
from repro.query import SelectionPredicate
from repro.query.sql import parse_query as parse


class TestPredicate:
    def test_values_normalized_sorted(self):
        a = SelectionPredicate("part", "p_size", "in", (3.0, 1.0, 2.0))
        b = SelectionPredicate("part", "p_size", "in", (2.0, 3.0, 1.0))
        assert a.pid == b.pid
        assert a.value == (1.0, 2.0, 3.0)
        assert not a.is_range and not a.indexable

    def test_empty_list_rejected(self):
        with pytest.raises(QueryError):
            SelectionPredicate("part", "p_size", "in", ())

    def test_str(self):
        pred = SelectionPredicate("part", "p_size", "in", (2.0, 1.0))
        assert str(pred) == "part.p_size in (1, 2)"


class TestEstimation:
    def test_in_selectivity_sums_equalities(self, statistics):
        single = SelectionPredicate("part", "p_size", "=", 7.0)
        triple = SelectionPredicate("part", "p_size", "in", (7.0, 8.0, 9.0))
        s1 = estimate_selection(single, statistics)
        s3 = estimate_selection(triple, statistics)
        assert s3 > s1
        assert s3 <= 1.0

    def test_magic_number_scales_with_list(self):
        pred = SelectionPredicate("part", "p_size", "in", (1.0, 2.0))
        assert estimate_selection(pred, None) == pytest.approx(0.2)

    def test_actual_selectivity(self, database):
        arr = database.column("part", "p_size")
        expected = float(np.mean(np.isin(arr, [1, 2, 3])))
        got = database.actual_selection_selectivity(
            "part", "p_size", "in", (1.0, 2.0, 3.0)
        )
        assert got == pytest.approx(expected)


class TestSqlAndExecution:
    def test_parses_in_list(self, schema):
        query = parse("select * from part where p_size in (1, 2, 3)", schema)
        assert query.selections[0].op == "in"
        assert query.selections[0].value == (1.0, 2.0, 3.0)

    def test_in_never_gets_an_index_scan(self, schema):
        from repro.optimizer.joinorder import access_paths

        query = parse("select * from part where p_size in (1, 2)", schema)
        paths = access_paths(query, "part")
        assert len(paths) == 1  # SeqScan only

    def test_execution_matches_numpy(self, database, schema):
        query = parse("select * from part where p_size in (1, 2, 3)", schema)
        engine = ExecutionEngine(database)
        result = engine.execute(query, SeqScan("part", (query.selections[0].pid,)))
        expected = int(np.isin(database.column("part", "p_size"), [1, 2, 3]).sum())
        assert result.rows == expected

    @pytest.mark.parametrize("budget", [None, 1e-6])
    def test_an_in_index_scan_is_an_error_not_a_budget_kill(self, database, schema, budget):
        """The operator is checked before the B-tree descent is charged:
        under a budget too small for the descent, the plan is still
        rejected, not reported as killed."""
        from repro.exceptions import ExecutionError
        from repro.optimizer import IndexScan

        query = parse("select * from part where p_size in (1, 2)", schema)
        builds = database.index_builds
        engine = ExecutionEngine(database)
        with pytest.raises(ExecutionError, match="cannot index-scan"):
            engine.execute(query, IndexScan("part", query.selections[0].pid), budget=budget)
        assert database.index_builds == builds

    def test_join_query_with_in_filter_end_to_end(self, database, schema):
        sql = (
            "select * from lineitem, part "
            "where p_partkey = l_partkey and p_size in (5, 10, 15)"
        )
        query = parse(sql, schema)
        optimizer = Optimizer(schema)
        truth = actual_selectivities(query, database)
        plan = optimizer.optimize(query, assignment=truth).plan
        engine = ExecutionEngine(database)
        assert engine.execute(query, plan).rows == reference_row_count(
            database, query
        )

    def test_bouquet_over_in_dimension(self, database, statistics, schema):
        """An IN predicate can itself be the error dimension."""
        from repro.api import BouquetConfig, Catalog, compile_bouquet, execute

        catalog = Catalog(schema, statistics=statistics, database=database)
        compiled = compile_bouquet(
            "select * from lineitem, part "
            "where p_partkey = l_partkey and p_size in (5, 10, 15, 20)",
            catalog,
            config=BouquetConfig(resolution=16),
        )
        result = execute(compiled, database)
        assert result.completed
