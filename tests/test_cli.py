"""Tests for the command-line interface."""

import os
import re

from repro.cli import main

ENV = ["--benchmark", "tpch", "--scale", "0.002", "--seed", "7", "--stats-sample", "800"]
EQ_SQL = (
    "select * from lineitem, orders, part "
    "where p_partkey = l_partkey and l_orderkey = o_orderkey "
    "and p_retailprice < 1000"
)


class TestSchemaCommand:
    def test_lists_tables(self, capsys):
        assert main(["schema"] + ENV) == 0
        out = capsys.readouterr().out
        assert "lineitem" in out and "rows=" in out
        assert "foreign keys: 8" in out

    def test_tpcds_environment(self, capsys):
        assert main(["schema", "--benchmark", "tpcds", "--scale", "0.002"]) == 0
        assert "store_sales" in capsys.readouterr().out


class TestExplainCommand:
    def test_prints_plan(self, capsys):
        assert main(["explain"] + ENV + [EQ_SQL]) == 0
        out = capsys.readouterr().out
        assert "Query" in out
        assert "cost=" in out and "rows=" in out

    def test_bad_sql_fails_gracefully(self, capsys):
        assert main(["explain"] + ENV + ["drop table part"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCompileCommand:
    def test_compile_and_validate(self, capsys):
        code = main(
            ["compile"] + ENV + [EQ_SQL, "--resolution", "24", "--validate"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Plan bouquet" in out
        assert "bouquet validation: OK" in out

    def test_compile_and_save(self, capsys, tmp_path):
        path = os.path.join(tmp_path, "b.json")
        code = main(
            ["compile"] + ENV + [EQ_SQL, "--resolution", "24", "--save", path]
        )
        assert code == 0
        assert os.path.exists(path)


class TestRunCommand:
    def test_run_inline(self, capsys):
        code = main(["run"] + ENV + [EQ_SQL, "--resolution", "24"])
        assert code == 0
        out = capsys.readouterr().out
        assert "result:" in out and "rows" in out
        # The selection is pinned by an index probe, so the run executes
        # once, on the first contour that can hold the measured point.
        (executed,) = re.findall(r"^IC(\d+): P\d+ \(full\) .* completed$", out, re.M)
        assert int(executed) > 1
        assert "1 executions" in out and "index probes" in out

    def test_run_from_saved_artifact(self, capsys, tmp_path):
        path = os.path.join(tmp_path, "b.json")
        assert (
            main(["compile"] + ENV + [EQ_SQL, "--resolution", "24", "--save", path])
            == 0
        )
        capsys.readouterr()
        code = main(["run"] + ENV + [EQ_SQL, "--load", path, "--mode", "basic"])
        assert code == 0
        assert "result:" in capsys.readouterr().out

    def test_deterministic_across_invocations(self, capsys):
        main(["run"] + ENV + [EQ_SQL, "--resolution", "24"])
        first = capsys.readouterr().out
        main(["run"] + ENV + [EQ_SQL, "--resolution", "24"])
        second = capsys.readouterr().out
        assert first == second


class TestRefreshCommand:
    """``repro refresh`` carries the artifact over or recompiles, and says
    which; ``--verify`` holds either against a fresh compile."""

    def test_untouched_inputs_carry_the_artifact_over(self, capsys):
        code = main(
            ["refresh"] + ENV
            + [EQ_SQL, "--resolution", "16", "--perturb", "customer", "--verify"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "carried over: no compile input moved, 0 locations planned" in out
        assert "recompiled" not in out
        assert "verify: bit-identical to a full recompile" in out

    def test_moved_base_recompiles(self, capsys):
        code = main(
            ["refresh"] + ENV
            + [
                EQ_SQL, "--resolution", "16", "--perturb", "part.p_partkey",
                "--distinct-scale", "1.3", "--verify",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert (
            "recompiled (base-moved), base selectivities moved "
            "(join:lineitem.l_partkey=part.p_partkey): planned 16/16 locations"
        ) in out
        assert "carried over" not in out
        assert "verify: bit-identical to a full recompile" in out


class TestTraceCommand:
    def test_run_writes_trace_and_summarizes(self, capsys, tmp_path):
        path = os.path.join(tmp_path, "trace.jsonl")
        code = main(
            ["run"] + ENV + [EQ_SQL, "--resolution", "24", "--trace", path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"trace written to {path}" in out
        assert os.path.exists(path)
        code = main(["trace", path])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-contour execution account" in out
        assert "optimizer." in out
        assert "IC" in out

    def test_missing_trace_file_fails_gracefully(self, capsys, tmp_path):
        code = main(["trace", os.path.join(tmp_path, "nope.jsonl")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestAdviseCommand:
    def test_recommends_bouquet_for_hard_query(self, capsys):
        # A many-to-many (non-FK) join is high-uncertainty.
        code = main(
            ["advise"]
            + ENV
            + ["select * from lineitem, partsupp where l_suppkey = ps_suppkey"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recommended mode: bouquet" in out

    def test_update_flag_recommends_native(self, capsys):
        code = main(["advise"] + ENV + [EQ_SQL, "--update"])
        assert code == 0
        assert "recommended mode: native" in capsys.readouterr().out


class TestBenchCommands:
    def test_fuzz_report_is_byte_identical_across_invocations(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["fuzz", "--count", "3", "--out", str(path)]) == 0
        assert f"report written to {paths[1]}" in capsys.readouterr().out
        assert paths[0].read_bytes() == paths[1].read_bytes()
