"""Command-line interface: ``python -m repro <command>``.

Commands operate on deterministic synthetic environments (benchmark +
scale + seed fully determine the data), so results are reproducible
across machines:

* ``schema``  — show the generated schema's tables and cardinalities;
* ``explain`` — optimize a SQL query at estimated selectivities and
  print the chosen plan;
* ``compile`` — build a plan bouquet for a SQL query, optionally
  validating and saving it;
* ``advise``  — apply §8's deployment rules (native / re-optimize /
  bouquet) to a query instance;
* ``run``     — execute a query through the bouquet (compiling first or
  loading a saved artifact) and print the execution trace;
* ``trace``   — summarize a JSONL telemetry trace (written with
  ``compile/run --trace FILE``) into a Table 3-style per-contour account;
* ``serve-stats`` — summarize the serving-layer account (cache ladder,
  single-flight coalescing, degradations) of a JSONL trace;
* ``serve``   — run the asyncio HTTP/JSON front-end (the v1 envelope
  protocol: POST /v1/serve, GET /v1/stats, GET /healthz) over a
  synthetic environment, with per-tenant admission quotas;
* ``fuzz``    — generate a seeded random workload, pick each query's ESS
  dimensions by error-sensitivity, and validate every measured MSO
  against the 4(1+λ)ρ guarantee (``--out`` writes the JSON report);
* ``refresh`` — compile a bouquet, inject localized statistics drift,
  and refresh it: the artifact is carried over when nothing its compile
  sees moved and recompiled otherwise (the command says which);
  ``--verify`` checks the result bit-for-bit against a full recompile.

Commands are built on the :mod:`repro.api` facade.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from .api import BouquetConfig, Catalog, CompiledBouquet, compile_bouquet
from .api import execute as api_execute
from .catalog.tpcds import tpcds_generator_spec, tpcds_schema
from .catalog.tpch import tpch_generator_spec, tpch_schema
from .core.advisor import recommend_processing_mode
from .core.validation import validate_bouquet
from .datagen.database import Database
from .exceptions import DriftError, ReproError
from .obs import JsonlSink, Tracer, read_trace, summarize_serving, summarize_trace
from .optimizer.explain import explain as explain_plan
from .query.sql import parse_query


def _session_tracer(args) -> Tracer:
    """A JSONL-sinked tracer when ``--trace`` was given, else null."""
    from .obs import NULL_TRACER

    if getattr(args, "trace", None):
        try:
            return Tracer(JsonlSink(args.trace))
        except OSError as exc:
            raise ReproError(f"cannot open trace file: {exc}") from exc
    return NULL_TRACER


def _finish_trace(tracer: Tracer, args):
    if getattr(args, "trace", None):
        tracer.close()
        print(f"trace written to {args.trace}")


def _build_environment(args):
    if args.benchmark == "tpch":
        schema = tpch_schema(args.scale)
        spec = tpch_generator_spec(args.scale)
    else:
        schema = tpcds_schema(args.scale)
        spec = tpcds_generator_spec(args.scale)
    database = Database.generate(schema, spec, seed=args.seed)
    statistics = database.build_statistics(sample_size=args.stats_sample, seed=args.seed)
    return schema, database, statistics


def _build_catalog(args) -> Catalog:
    schema, database, statistics = _build_environment(args)
    return Catalog(schema, statistics=statistics, database=database)


def _add_env_arguments(parser):
    parser.add_argument(
        "--benchmark", choices=("tpch", "tpcds"), default="tpch",
        help="synthetic environment to generate (default: tpch)",
    )
    parser.add_argument("--scale", type=float, default=0.003, help="scale factor")
    parser.add_argument("--seed", type=int, default=42, help="data generation seed")
    parser.add_argument(
        "--stats-sample", type=int, default=2000,
        help="rows sampled per column for optimizer statistics",
    )


def _cmd_schema(args) -> int:
    schema, database, _ = _build_environment(args)
    print(f"schema {schema.name}:")
    for name in schema.table_names:
        table = schema.table(name)
        print(
            f"  {name:<22} rows={table.row_count:<10} pages={table.pages:<7} "
            f"columns={', '.join(table.column_names)}"
        )
    print(f"foreign keys: {len(schema.foreign_keys)}")
    return 0


def _cmd_explain(args) -> int:
    catalog = _build_catalog(args)
    optimizer = catalog.optimizer()
    query = parse_query(args.sql, catalog.schema)
    result = optimizer.optimize(query)
    assignment = optimizer.estimated_assignment(query)
    print(query.describe())
    print()
    print(explain_plan(result.plan, catalog.schema, optimizer.cost_model, assignment))
    return 0


def _cmd_compile(args) -> int:
    catalog = _build_catalog(args)
    tracer = _session_tracer(args)
    config = BouquetConfig(
        ratio=args.ratio,
        lambda_=args.anorexic_lambda,
        resolution=args.resolution,
    )
    compiled = compile_bouquet(args.sql, catalog, config=config, tracer=tracer)
    _finish_trace(tracer, args)
    print(compiled.bouquet.describe())
    if args.validate:
        report = validate_bouquet(compiled.bouquet, check_optimized=True, sample=8)
        print(report.describe())
        if not report.ok:
            return 1
    if args.save:
        compiled.save(args.save)
        print(f"saved bouquet to {args.save}")
    return 0


def _cmd_advise(args) -> int:
    schema, database, statistics = _build_environment(args)
    query = parse_query(args.sql, schema)
    recommendation = recommend_processing_mode(
        query,
        statistics,
        read_only=not args.update,
        latency_sensitive=args.latency_sensitive,
    )
    print(query.describe())
    print()
    print(recommendation.describe())
    return 0


def _cmd_run(args) -> int:
    catalog = _build_catalog(args)
    tracer = _session_tracer(args)
    if args.load:
        compiled = CompiledBouquet.load(args.load, catalog, query=args.sql)
    else:
        config = BouquetConfig(resolution=args.resolution)
        compiled = compile_bouquet(args.sql, catalog, config=config, tracer=tracer)
    result = api_execute(compiled, catalog.database, mode=args.mode, tracer=tracer)
    _finish_trace(tracer, args)
    for record in result.executions:
        kind = "spilled" if record.spilled else "full"
        status = "completed" if record.completed else "budget-killed"
        print(
            f"IC{record.contour_index}: P{record.plan_id} ({kind}) "
            f"spent {record.cost_spent:.1f}/{record.budget:.1f} — {status}"
        )
    summary = (
        f"result: {result.result_rows} rows, total cost {result.total_cost:.1f}"
    )
    if result.probe_cost:
        summary += f" (index probes {result.probe_cost:.1f})"
    summary += (
        f", {result.execution_count} executions "
        f"(guaranteed MSO <= {compiled.mso_bound:.1f})"
    )
    print(summary)
    return 0


def _cmd_refresh(args) -> int:
    from .drift import bouquets_equal, patch_compiled, perturb_statistics

    schema, _database, statistics = _build_environment(args)
    # Statistics-only catalog (the ETL scenario): the base assignment is
    # estimated, so statistics drift actually moves the compile inputs.
    catalog = Catalog(schema, statistics=statistics)
    tracer = _session_tracer(args)
    config = BouquetConfig(resolution=args.resolution)
    compiled = compile_bouquet(args.sql, catalog, config=config, tracer=tracer)
    print(
        f"compiled: |B|={compiled.bouquet.cardinality} over "
        f"{compiled.space.size} ESS locations"
    )

    table, _, column = args.perturb.partition(".")
    new_statistics = perturb_statistics(
        statistics,
        table,
        column or None,
        scale=args.perturb_scale,
        distinct_scale=args.distinct_scale,
    )
    catalog.statistics = new_statistics

    try:
        refreshed = patch_compiled(compiled, catalog, tracer=tracer)
        print("carried over: no compile input moved, 0 locations planned")
    except DriftError as exc:
        refreshed = compile_bouquet(args.sql, catalog, config=config, tracer=tracer)
        # The carry-over's own account: why it refused, and (when a
        # base selectivity moved) which predicates.
        print(
            f"recompiled ({exc.reason}), {exc}: planned "
            f"{refreshed.space.size}/{refreshed.space.size} locations"
        )
    print(refreshed.bouquet.describe())

    status = 0
    if args.verify:
        reference = compile_bouquet(args.sql, catalog, config=config)
        problems = bouquets_equal(refreshed.bouquet, reference.bouquet)
        if problems:
            print("verify: MISMATCH vs full recompile:")
            for problem in problems:
                print(f"  - {problem}")
            status = 1
        else:
            print("verify: bit-identical to a full recompile")
    _finish_trace(tracer, args)
    return status


def _cmd_trace(args) -> int:
    try:
        records = read_trace(args.file)
    except (OSError, ValueError) as exc:  # unreadable file or corrupt JSONL
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summarize_trace(records).describe())
    return 0


def _cmd_serve_stats(args) -> int:
    try:
        records = read_trace(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summarize_serving(records).describe())
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .serve import (
        AsyncioRuntime,
        BouquetArtifactStore,
        BouquetFrontEnd,
        BouquetServer,
        ServeGateway,
        TenantQuota,
    )

    catalog = _build_catalog(args)
    tracer = _session_tracer(args)
    if not tracer.enabled:
        # /v1/stats reports live counters; a long-running server should
        # never be blind just because --trace wasn't given.
        from .obs import MemorySink

        tracer = Tracer(MemorySink())
    config = BouquetConfig(
        resolution=args.resolution,
        template=not args.no_template,
    )
    store = BouquetArtifactStore(root=args.store, tracer=tracer)
    runtime = AsyncioRuntime(max_workers=args.workers)
    quota = TenantQuota(
        rate=args.quota_rate, burst=args.quota_burst, max_queue=args.quota_queue
    )
    with BouquetServer(
        catalog, config=config, store=store, tracer=tracer
    ) as server:
        gateway = ServeGateway(
            server, runtime=runtime, default_quota=quota, tracer=tracer
        )
        front = BouquetFrontEnd(gateway, host=args.host, port=args.port)

        async def _run() -> None:
            host, port = await front.start()
            print(
                f"serving on http://{host}:{port} "
                "(POST /v1/serve, GET /v1/stats, GET /healthz; Ctrl-C stops)"
            )
            try:
                await asyncio.Event().wait()
            finally:
                await front.stop()

        try:
            asyncio.run(_run())
        except KeyboardInterrupt:
            print("shutting down")
    runtime.shutdown()
    _finish_trace(tracer, args)
    return 0


def _cmd_fuzz(args) -> int:
    from .wlgen import CampaignConfig, GeneratorConfig, run_campaign

    config = CampaignConfig(
        benchmark=args.benchmark,
        scale=args.scale,
        data_seed=args.data_seed,
        stats_sample=args.stats_sample,
        seed=args.seed,
        count=args.count,
        generator=GeneratorConfig(max_joins=args.max_joins),
        max_dims=args.max_dims,
        workers=args.workers,
    )

    def progress(outcome):
        status = "ok" if outcome.ok else outcome.status.upper()
        mso = f"  mso={outcome.mso:.3f}/{outcome.bound:.2f}" if outcome.mso else ""
        print(
            f"  [{outcome.index:>4}] {outcome.name:<12} {outcome.geometry:<10} "
            f"{status}{mso}",
            flush=True,
        )

    started = time.time()
    report = run_campaign(config, progress=progress if args.progress else None)
    elapsed = time.time() - started
    print(report.describe())
    print(
        f"  elapsed        : {elapsed:.1f} s "
        f"({elapsed / config.count * 1000:.0f} ms/query, {config.workers} worker(s))"
    )
    if args.out:
        # Timing stays out of the payload: the same seed must write the
        # same bytes.
        with open(args.out, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.out}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Plan bouquets: query processing without selectivity estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_schema = sub.add_parser("schema", help="show the synthetic schema")
    _add_env_arguments(p_schema)
    p_schema.set_defaults(func=_cmd_schema)

    p_explain = sub.add_parser("explain", help="optimize and print a plan")
    _add_env_arguments(p_explain)
    p_explain.add_argument("sql", help="SPJ SQL text")
    p_explain.set_defaults(func=_cmd_explain)

    p_compile = sub.add_parser("compile", help="compile a plan bouquet")
    _add_env_arguments(p_compile)
    p_compile.add_argument("sql", help="SPJ SQL text")
    p_compile.add_argument("--resolution", type=int, default=None)
    p_compile.add_argument("--anorexic-lambda", type=float, default=0.2)
    p_compile.add_argument("--ratio", type=float, default=2.0)
    p_compile.add_argument("--save", metavar="PATH", default=None)
    p_compile.add_argument("--validate", action="store_true")
    p_compile.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a JSONL telemetry trace of the compile phase",
    )
    p_compile.set_defaults(func=_cmd_compile)

    p_advise = sub.add_parser(
        "advise", help="recommend native / re-optimize / bouquet for a query (§8)"
    )
    _add_env_arguments(p_advise)
    p_advise.add_argument("sql", help="SPJ SQL text")
    p_advise.add_argument("--update", action="store_true", help="query writes data")
    p_advise.add_argument("--latency-sensitive", action="store_true")
    p_advise.set_defaults(func=_cmd_advise)

    p_run = sub.add_parser("run", help="execute a query through its bouquet")
    _add_env_arguments(p_run)
    p_run.add_argument("sql", help="SPJ SQL text")
    p_run.add_argument("--load", metavar="PATH", default=None)
    p_run.add_argument("--resolution", type=int, default=None)
    p_run.add_argument("--mode", choices=("basic", "optimized"), default="optimized")
    p_run.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a JSONL telemetry trace of compile + execution",
    )
    p_run.set_defaults(func=_cmd_run)

    p_refresh = sub.add_parser(
        "refresh",
        help="refresh a compiled bouquet after injected statistics drift",
    )
    _add_env_arguments(p_refresh)
    p_refresh.add_argument("sql", help="SPJ SQL text")
    p_refresh.add_argument("--resolution", type=int, default=None)
    p_refresh.add_argument(
        "--perturb", metavar="TABLE[.COLUMN]", required=True,
        help="statistics target to drift (one table, or one column of it)",
    )
    p_refresh.add_argument(
        "--perturb-scale", type=float, default=1.5,
        help="multiplier applied to the target's value statistics",
    )
    p_refresh.add_argument(
        "--distinct-scale", type=float, default=None,
        help="additionally scale the target's distinct counts (moves joins)",
    )
    p_refresh.add_argument(
        "--verify", action="store_true",
        help="check the refreshed bouquet bit-for-bit against a full recompile",
    )
    p_refresh.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a JSONL telemetry trace of the refresh",
    )
    p_refresh.set_defaults(func=_cmd_refresh)

    p_trace = sub.add_parser(
        "trace", help="summarize a JSONL telemetry trace (Table 3-style account)"
    )
    p_trace.add_argument("file", help="trace file written with --trace")
    p_trace.set_defaults(func=_cmd_trace)

    p_sstats = sub.add_parser(
        "serve-stats",
        help="summarize the serving-layer account (cache ladder, coalescing) "
        "of a JSONL trace",
    )
    p_sstats.add_argument("file", help="trace file written by the serving layer")
    p_sstats.set_defaults(func=_cmd_serve_stats)

    p_serve = sub.add_parser(
        "serve",
        help="run the asyncio HTTP/JSON serving front-end (v1 envelope "
        "protocol) over a synthetic environment",
    )
    _add_env_arguments(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8751)
    p_serve.add_argument("--resolution", type=int, default=None)
    p_serve.add_argument(
        "--store", metavar="DIR", default=None,
        help="artifact store directory (default: memory-only)",
    )
    p_serve.add_argument("--workers", type=int, default=8)
    p_serve.add_argument(
        "--no-template", action="store_true",
        help="disable the cross-query template cache tier (every miss "
        "compiles from scratch instead of rebinding a shared template)",
    )
    p_serve.add_argument(
        "--quota-rate", type=float, default=200.0,
        help="per-tenant sustained requests/second",
    )
    p_serve.add_argument(
        "--quota-burst", type=float, default=50.0,
        help="per-tenant instantaneous burst headroom",
    )
    p_serve.add_argument(
        "--quota-queue", type=int, default=64,
        help="per-tenant in-flight queue slots",
    )
    p_serve.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write the serving telemetry as a JSONL trace",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="fuzz the pipeline with generated queries: random acyclic SPJ "
        "workloads, per-query sensitivity-chosen ESS dimensions, every "
        "measured MSO checked against the 4(1+lambda)rho bound",
    )
    p_fuzz.add_argument(
        "--benchmark", choices=("tpch", "tpcds"), default="tpch",
        help="synthetic environment to fuzz over (default: tpch)",
    )
    p_fuzz.add_argument(
        "--count", type=int, default=200,
        help="number of generated queries (default 200)",
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=42,
        help="the campaign seed: pins the query stream end to end; the same "
        "seed replays the identical campaign (recorded in the JSON report)",
    )
    p_fuzz.add_argument("--scale", type=float, default=0.003, help="scale factor")
    p_fuzz.add_argument(
        "--data-seed", type=int, default=7, help="data generation seed"
    )
    p_fuzz.add_argument(
        "--stats-sample", type=int, default=1500,
        help="rows sampled per column for optimizer statistics",
    )
    p_fuzz.add_argument(
        "--max-joins", type=int, default=4,
        help="largest join-tree size sampled per query",
    )
    p_fuzz.add_argument(
        "--max-dims", type=int, default=3,
        help="ESS dimensions kept per query by sensitivity ranking",
    )
    p_fuzz.add_argument(
        "--workers", type=int, default=1, help="campaign shards (processes)"
    )
    p_fuzz.add_argument(
        "--progress", action="store_true", help="print one line per fuzzed query"
    )
    p_fuzz.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the campaign report as JSON here",
    )
    p_fuzz.set_defaults(func=_cmd_fuzz)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
