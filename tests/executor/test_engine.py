"""Tests for the execution engine: correctness, costs, budgets, spilling."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.datagen import Database
from repro.executor import CostPerturbation, ExecutionEngine
from repro.obs import MemorySink, Tracer
from repro.optimizer import (
    Aggregate,
    IndexLookup,
    IndexScan,
    Join,
    SeqScan,
    actual_selectivities,
    cost_plan,
)
from repro.query import parse_query
from tests.conftest import node_counters


@pytest.fixture(scope="module")
def engine(database):
    return ExecutionEngine(database, batch_size=1024)


@pytest.fixture(scope="module")
def eq_truth(eq_query, database):
    return actual_selectivities(eq_query, database)


@pytest.fixture(scope="module")
def eq_pids(eq_query):
    sel = eq_query.selections[0].pid
    j_lp = next(j for j in eq_query.joins if "part" in j.tables).pid
    j_lo = next(j for j in eq_query.joins if "orders" in j.tables).pid
    return sel, j_lp, j_lo


def brute_force_eq_count(database, threshold=1000.0):
    """Ground truth for EQ via numpy joins."""
    part = database.table("part")
    lineitem = database.table("lineitem")
    cheap = set(part["p_partkey"][part["p_retailprice"] < threshold].tolist())
    mask = np.array([v in cheap for v in lineitem["l_partkey"]])
    # every lineitem's order exists exactly once (FK integrity)
    return int(mask.sum())


class TestCorrectness:
    def test_eq_row_count_matches_brute_force(
        self, engine, eq_query, eq_pids, database
    ):
        sel, j_lp, j_lo = eq_pids
        plan = Join(
            "hash",
            Join("hash", SeqScan("lineitem"), SeqScan("orders"), (j_lo,)),
            SeqScan("part", (sel,)),
            (j_lp,),
        )
        result = engine.execute(eq_query, plan)
        assert result.completed
        assert result.rows == brute_force_eq_count(database)

    def test_all_join_algorithms_agree(self, engine, eq_query, eq_pids):
        sel, j_lp, j_lo = eq_pids
        counts = set()
        for algo in ("hash", "merge", "nl"):
            plan = Join(
                algo,
                Join(algo, SeqScan("lineitem"), SeqScan("orders"), (j_lo,)),
                SeqScan("part", (sel,)),
                (j_lp,),
            )
            counts.add(engine.execute(eq_query, plan).rows)
        assert len(counts) == 1

    def test_inl_join_agrees(self, engine, eq_query, eq_pids):
        sel, j_lp, j_lo = eq_pids
        hash_plan = Join(
            "hash",
            Join("hash", SeqScan("lineitem"), SeqScan("orders"), (j_lo,)),
            SeqScan("part", (sel,)),
            (j_lp,),
        )
        inl_plan = Join(
            "inl",
            Join("hash", SeqScan("lineitem"), SeqScan("orders"), (j_lo,)),
            IndexLookup("part", "p_partkey", (sel,)),
            (j_lp,),
        )
        assert (
            engine.execute(eq_query, inl_plan).rows
            == engine.execute(eq_query, hash_plan).rows
        )

    def test_index_scan_agrees_with_seq_scan(self, engine, eq_query, eq_pids):
        sel, j_lp, j_lo = eq_pids
        seq = SeqScan("part", (sel,))
        idx = IndexScan("part", sel)
        assert (
            engine.execute(eq_query, seq).rows == engine.execute(eq_query, idx).rows
        )

    def test_collect_returns_columns(self, engine, eq_query, eq_pids):
        sel, *_ = eq_pids
        result = engine.execute(eq_query, SeqScan("part", (sel,)), collect=True)
        assert result.result is not None
        assert "part.p_retailprice" in result.result
        assert (result.result["part.p_retailprice"] < 1000.0).all()


class TestJoinProbes:
    def test_sparse_keys_are_searched_to_the_same_rows_and_charges(
        self, database, eq_query, eq_pids
    ):
        """Which way a probe finds its matches moves wall time only; the
        tracer counts the two ways apart."""
        sel, j_lp, j_lo = eq_pids
        plan = Join(
            "hash",
            Join("hash", SeqScan("lineitem"), SeqScan("orders"), (j_lo,)),
            SeqScan("part", (sel,)),
            (j_lp,),
        )
        tracer = Tracer(MemorySink())
        dense = ExecutionEngine(database, batch_size=1024, tracer=tracer).execute(eq_query, plan)
        assert tracer.counters["executor.dense_probes"] > 0
        assert "executor.searched_probes" not in tracer.counters

        tables = {
            table: {column: array.copy() for column, array in database.table(table).items()}
            for table in database.schema.table_names
        }
        for table, column in (("orders", "o_orderkey"), ("lineitem", "l_orderkey")):
            tables[table][column] *= 1_000_003  # far past the density rule
        sparse_database = Database(database.schema, tables)
        tracer = Tracer(MemorySink())
        sparse = ExecutionEngine(sparse_database, batch_size=1024, tracer=tracer).execute(
            eq_query, plan
        )
        assert tracer.counters["executor.searched_probes"] > 0
        assert tracer.counters["executor.dense_probes"] > 0  # the part join
        assert (sparse.rows, sparse.spent) == (dense.rows, dense.spent)


class TestGroupBy:
    @pytest.mark.parametrize(
        "column, path",
        [("l_partkey", "executor.dense_groups"), ("l_quantity", "executor.sorted_groups")],
    )
    def test_batches_are_grouped_once_by_address_or_by_sorting(
        self, database, schema, column, path
    ):
        """An aggregate over many input batches groups their keys once:
        an int key by address, a float key by sorting, each to the groups
        of a sort over the whole column; the tracer counts the two ways
        apart."""
        query = parse_query(f"select count(*) from lineitem group by {column}", schema)
        plan = Aggregate(SeqScan("lineitem"), (("lineitem", column),))
        tracer = Tracer(MemorySink())
        result = ExecutionEngine(database, batch_size=1024, tracer=tracer).execute(
            query, plan, collect=True
        )
        keys, counts = np.unique(database.column("lineitem", column), return_counts=True)
        assert result.result[f"lineitem.{column}"].tolist() == keys.tolist()
        assert result.result["count"].tolist() == counts.tolist()
        assert result.rows == keys.size
        groupings = {
            name: value for name, value in tracer.counters.items() if name.endswith("_groups")
        }
        assert groupings == {path: 1}


def build_joins(bound):
    """The bound plan's hash, merge and NL joins, by their node."""
    return {id(op.node): op for op in bound.ops.values() if hasattr(op, "kept")}


class TestKeptBuilds:
    """A bound join builds its build side once: later runs of the same
    bound plan replay the build's log and return what it kept."""

    @staticmethod
    def eq_plan(eq_pids, algo="hash"):
        sel, j_lp, j_lo = eq_pids
        return Join(
            algo,
            Join(algo, SeqScan("lineitem"), SeqScan("orders"), (j_lo,)),
            SeqScan("part", (sel,)),
            (j_lp,),
        )

    @staticmethod
    def nested_plan(eq_pids):
        """A build side that is itself a join with a filtered build side."""
        sel, j_lp, j_lo = eq_pids
        return Join(
            "hash",
            SeqScan("orders"),
            Join("hash", SeqScan("lineitem"), SeqScan("part", (sel,)), (j_lp,)),
            (j_lo,),
        )

    @pytest.mark.parametrize("algo", ["hash", "merge", "nl"])
    def test_recorded_then_replayed_and_counted(self, database, eq_query, eq_pids, algo):
        plan = self.eq_plan(eq_pids, algo)
        tracer = Tracer(MemorySink())
        engine = ExecutionEngine(database, batch_size=1024, tracer=tracer)
        bound = engine.bind(eq_query, plan)
        fresh = engine.execute(eq_query, engine.bind(eq_query, plan), collect=True)
        counts = []
        for _ in range(3):
            before = dict(tracer.counters)
            result = engine.execute(eq_query, bound, collect=True)
            counts.append(
                tuple(
                    tracer.counters.get(name, 0) - before.get(name, 0)
                    for name in ("executor.builds", "executor.build_replays")
                )
            )
            assert node_counters(result) == node_counters(fresh)
            assert (result.rows, result.spent) == (fresh.rows, fresh.spent)
            assert all(np.array_equal(result.result[k], fresh.result[k]) for k in fresh.result)
        # orders (a whole table) and part: recorded once, then replayed
        assert counts == [(2, 0), (0, 2), (0, 2)]
        # A run on another batch size records its own build.
        other = ExecutionEngine(database, batch_size=999, tracer=tracer)
        before = tracer.counters.get("executor.builds", 0)
        assert other.execute(eq_query, bound).spent == other.execute(eq_query, plan).spent
        assert tracer.counters["executor.builds"] - before == 4
        assert all(op.kept.batch_size == 999 for op in build_joins(bound).values())

    def test_no_counts_without_tracing(self, engine, eq_query, eq_pids):
        bound = engine.bind(eq_query, self.eq_plan(eq_pids))
        engine.execute(eq_query, bound)
        assert all(op.kept is not None for op in build_joins(bound).values())
        assert engine.tracer.counters == {}

    def test_nested_builds_are_logged_into_the_enclosing_one(
        self, database, eq_query, eq_pids
    ):
        plan = self.nested_plan(eq_pids)
        engine = ExecutionEngine(database, batch_size=1024)
        whole = engine.execute(eq_query, plan)
        assert len(node_counters(whole)) == 5
        for budget in [whole.spent * k / 10 for k in range(1, 10)]:
            bound = engine.bind(eq_query, plan)
            killed = engine.execute(eq_query, bound, budget=budget)
            # A build is kept exactly when its run got past it.
            for op in build_joins(bound).values():
                built = killed.instrumentation.finished(op.node.right)
                assert (op.kept is not None) == built
            again = engine.execute(eq_query, bound, budget=budget)
            assert node_counters(again) == node_counters(killed)
            assert (again.spent, again.rows) == (killed.spent, killed.rows)
        bound = engine.bind(eq_query, plan)
        engine.execute(eq_query, bound)
        outer, inner = (build_joins(bound)[id(node)] for node in (plan, plan.right))
        # The outer log holds the inner build's events: a replay of the
        # outer build never reaches the inner join.
        inner_nodes = {id(node) for node in plan.right.right.postorder()}
        assert inner_nodes <= {id(node) for _, node, _ in outer.kept.log}
        inner.kept = None
        replayed = engine.execute(eq_query, bound)
        assert inner.kept is None
        assert node_counters(replayed) == node_counters(whole)

    @pytest.mark.parametrize("fraction", [None, 0.5, 0.95])
    def test_spill_resume_inside_a_kept_build_neither_reads_nor_keeps_it(
        self, database, eq_query, eq_pids, fraction
    ):
        """The spill node (the filtered part scan) lies inside the top
        join's build side: the resume builds from the stored output, and
        the build kept by an earlier full run stays as it was."""
        sel, *_ = eq_pids
        plan = self.eq_plan(eq_pids)
        engine = ExecutionEngine(database, batch_size=1024)
        bound = engine.bind(eq_query, plan)
        full = engine.execute(eq_query, bound)
        kept = build_joins(bound)[id(plan)].kept
        assert kept is not None
        budget = None if fraction is None else full.spent * fraction
        spilled, node = engine.execute_spilled(eq_query, bound, {sel}, budget=budget)
        fresh, fresh_node = engine.execute_spilled(eq_query, plan, {sel}, budget=budget)
        assert node is plan.right and fresh_node is plan.right
        assert (spilled.completed, spilled.rows, spilled.spent) == (
            fresh.completed,
            fresh.rows,
            fresh.spent,
        )
        assert node_counters(spilled) == node_counters(fresh)
        inst, fresh_inst = spilled.instrumentation, fresh.instrumentation
        assert (inst.tuples_out(node), inst.finished(node)) == (
            fresh_inst.tuples_out(node),
            fresh_inst.finished(node),
        )
        assert build_joins(bound)[id(plan)].kept is kept
        assert node_counters(engine.execute(eq_query, bound)) == node_counters(full)


class TestCostAgreement:
    def test_engine_cost_tracks_optimizer_cost(
        self, engine, optimizer, eq_query, eq_truth, eq_pids
    ):
        """The run-time account must agree with the compile-time cost
        model at the true selectivities (the property that makes contour
        budgets meaningful)."""
        sel, j_lp, j_lo = eq_pids
        plans = [
            Join(
                "hash",
                Join("hash", SeqScan("lineitem"), SeqScan("orders"), (j_lo,)),
                SeqScan("part", (sel,)),
                (j_lp,),
            ),
            Join(
                "merge",
                Join("hash", SeqScan("lineitem"), SeqScan("orders"), (j_lo,)),
                IndexScan("part", sel),
                (j_lp,),
            ),
        ]
        for plan in plans:
            expected = cost_plan(
                plan, optimizer.schema, engine.cost_model, eq_truth
            ).cost
            got = engine.execute(eq_query, plan).spent
            assert got == pytest.approx(expected, rel=0.15), plan.signature()


class TestBudgets:
    def test_budget_abort_spends_exactly_budget(self, engine, eq_query, eq_pids):
        sel, j_lp, j_lo = eq_pids
        plan = Join(
            "hash",
            Join("hash", SeqScan("lineitem"), SeqScan("orders"), (j_lo,)),
            SeqScan("part", (sel,)),
            (j_lp,),
        )
        full = engine.execute(eq_query, plan)
        budget = full.spent / 3
        partial = engine.execute(eq_query, plan, budget=budget)
        assert not partial.completed
        assert partial.spent == pytest.approx(budget)
        assert partial.rows < full.rows

    def test_generous_budget_completes(self, engine, eq_query, eq_pids):
        sel, *_ = eq_pids
        plan = SeqScan("part", (sel,))
        full = engine.execute(eq_query, plan)
        again = engine.execute(eq_query, plan, budget=full.spent * 1.01)
        assert again.completed and again.rows == full.rows


class TestSpilledExecution:
    def test_spill_resumes_after_error_node_resolves(self, engine, eq_query, eq_pids):
        sel, j_lp, j_lo = eq_pids
        plan = Join(
            "hash",
            Join("hash", SeqScan("lineitem"), SeqScan("orders"), (j_lo,)),
            SeqScan("part", (sel,)),
            (j_lp,),
        )
        result, node = engine.execute_spilled(eq_query, plan, {sel})
        assert node is not None and sel in node.local_pids
        # Unlimited budget: the stored spill output is replayed and the
        # resumed plan answers the query at exactly the full plan's cost
        # (the spilled subtree is charged once, never re-executed).
        assert result.completed
        assert result.instrumentation.finished(node)
        full = engine.execute(eq_query, plan)
        assert result.rows == full.rows
        assert result.spent == pytest.approx(full.spent)

    def test_spill_tight_budget_learns_without_answering(
        self, engine, eq_query, eq_pids
    ):
        sel, j_lp, j_lo = eq_pids
        plan = Join(
            "hash",
            Join("hash", SeqScan("lineitem"), SeqScan("orders"), (j_lo,)),
            SeqScan("part", (sel,)),
            (j_lp,),
        )
        full = engine.execute(eq_query, plan)
        subtree = engine.execute(eq_query, SeqScan("part", (sel,)))
        budget = (subtree.spent + full.spent) / 2
        result, node = engine.execute_spilled(eq_query, plan, {sel}, budget=budget)
        # The spill node resolved (exact learning) but the resumed plan
        # hit the cost horizon: budget fully consumed, query unanswered.
        assert node is not None
        assert not result.completed
        assert result.instrumentation.finished(node)
        assert result.spent == pytest.approx(budget)

    def test_spill_without_error_node_runs_full(self, engine, eq_query, eq_pids):
        sel, *_ = eq_pids
        plan = SeqScan("part", (sel,))
        result, node = engine.execute_spilled(eq_query, plan, {"ghost"})
        assert node is None
        assert result.completed


class TestCostPerturbation:
    def test_factor_within_delta_band(self):
        pert = CostPerturbation(delta=0.4, seed=1)
        node = SeqScan("part")
        factor = pert.factor(node)
        assert 1 / 1.4 <= factor <= 1.4
        assert factor == pert.factor(SeqScan("part"))  # deterministic

    def test_zero_delta_identity(self):
        assert CostPerturbation(0.0).factor(SeqScan("part")) == 1.0

    def test_factor_repeats_across_processes(self):
        """Two interpreters with different string-hash salts draw the same
        factor, so a perturbed run repeats from one process to the next."""
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        probe = (
            "from repro.executor import CostPerturbation\n"
            "from repro.optimizer import SeqScan\n"
            "print(repr(CostPerturbation(delta=0.4, seed=11)"
            ".factor(SeqScan('part', ('sel:part.p_size',)))))"
        )
        outputs = []
        for salt in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=salt)
            run = subprocess.run(
                [sys.executable, "-c", probe], env=env, capture_output=True,
                text=True, check=True,
            )
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]

    def test_perturbed_engine_costs_within_band(
        self, database, eq_query, eq_pids, engine
    ):
        sel, *_ = eq_pids
        plan = SeqScan("part", (sel,))
        clean = engine.execute(eq_query, plan).spent
        noisy_engine = ExecutionEngine(
            database, perturbation=CostPerturbation(delta=0.4, seed=5)
        )
        noisy = noisy_engine.execute(eq_query, plan).spent
        assert clean / 1.4 <= noisy <= clean * 1.4
