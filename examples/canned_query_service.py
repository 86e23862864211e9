"""Canned-query service: compile once offline, serve forever.

The paper recommends bouquets for form-based ("canned") query interfaces
where the expensive compile-time phase is precomputed offline (§4.2).
This example plays both roles with the serving layer:

* **offline**: ``compile_bouquet`` with a disk-backed
  :class:`~repro.serve.BouquetArtifactStore` — the compiled artifact is
  persisted under its content-hash key (canonical query + statistics
  fingerprint + compile knobs);
* **online**: a :class:`~repro.serve.BouquetServer` over the same store
  answers repeated requests from cache (zero optimizer calls), then a
  (simulated) statistics refresh carries the artifact over to the new
  fingerprint — the base selectivities are the data's, so nothing the
  compile sees has moved — and sweeps the stale entry;
* **scale-up**: the grown database moves every base selectivity, so
  nothing carries over (§8): the stale cache entries are dropped and the
  bouquet is recompiled — one slab DP over the grid.

Run:  python examples/canned_query_service.py
"""

import os
import tempfile

from repro import (
    BouquetArtifactStore,
    BouquetConfig,
    BouquetServer,
    Catalog,
    Database,
    MemorySink,
    Tracer,
    compile_bouquet,
    tpch_schema,
)
from repro.catalog import tpch_generator_spec
from repro.serve import statistics_fingerprint

SQL = (
    "select * from lineitem, orders, part "
    "where p_partkey = l_partkey and l_orderkey = o_orderkey "
    "and p_retailprice < 1100 and o_totalprice < 250000"
)


def main():
    scale = 0.003
    schema = tpch_schema(scale)
    database = Database.generate(schema, tpch_generator_spec(scale), seed=33)
    statistics = database.build_statistics(sample_size=1500)
    catalog = Catalog(schema, statistics=statistics, database=database)
    config = BouquetConfig()
    tracer = Tracer(MemorySink())
    store_dir = tempfile.mkdtemp(prefix="bouquet-store-")
    store = BouquetArtifactStore(root=store_dir, tracer=tracer)

    # ---- offline: compile into the content-addressed store ---------------
    compiled = compile_bouquet(SQL, catalog, config=config, cache=store)
    print("compiled bouquet:")
    print(f"  dims: {[d.name for d in compiled.space.dimensions]}")
    print(
        f"  |B|={compiled.bouquet.cardinality} "
        f"contours={len(compiled.bouquet.contours)} "
        f"guaranteed MSO <= {compiled.mso_bound:.1f}"
    )
    print(f"  stored under {store_dir} ({store.snapshot()['disk_entries']} artifact)")
    print()

    # ---- online: a server over the same store serves from cache ----------
    with BouquetServer(
        catalog, config=config, store=store, tracer=tracer
    ) as server:
        for invocation in range(3):
            served = server.serve(SQL)
            trace = ", ".join(
                f"IC{e.contour_index}:P{e.plan_id}"
                for e in served.result.executions
            )
            print(
                f"invocation {invocation + 1}: {served.rows} rows, "
                f"cost {served.total_cost:.0f}, cache={served.cache}, "
                f"trace [{trace}]"
            )
        print("(identical traces: the bouquet strategy is repeatable, §1)")
        print()

        # ---- statistics refresh: the cached artifact carries over --------
        new_stats = database.build_statistics(sample_size=3000)
        dropped = server.refresh_statistics(new_stats)
        patched = server.stats()["counters"].get("serve.cache.patched", 0)
        print(
            f"statistics refreshed: {patched:g} artifact(s) carried over to the "
            f"new fingerprint, {dropped} stale entr{'y' if dropped == 1 else 'ies'} swept"
        )
        served = server.serve(SQL)
        print(
            f"post-refresh request: cache={served.cache}, status={served.status}"
        )
        counters = server.stats()["counters"]
        print(
            "serving counters: "
            f"hits={counters.get('serve.cache.hit_memory', 0):g} "
            f"misses={counters.get('serve.cache.miss', 0):g} "
            f"invalidated={counters.get('serve.cache.invalidated', 0):g}"
        )
        print()

    # ---- the warehouse grows: recompile against the new world (§8) -------
    big_schema = tpch_schema(scale * 4)
    big_db = Database.generate(big_schema, tpch_generator_spec(scale * 4), seed=33)
    big_stats = big_db.build_statistics(sample_size=1500)
    dropped = store.invalidate_statistics(statistics_fingerprint(big_stats))
    big_catalog = Catalog(big_schema, statistics=big_stats, database=big_db)
    rebuilt = compile_bouquet(SQL, big_catalog, config=config, cache=store)
    print(
        f"after 4x scale-up: dropped {dropped} stale artifact(s) and "
        f"recompiled over {rebuilt.space.size} ESS locations "
        f"(|B|={rebuilt.bouquet.cardinality}); "
        f"new guarantee MSO <= {rebuilt.mso_bound:.1f}"
    )
    store.clear()
    os.rmdir(store_dir)


if __name__ == "__main__":
    main()
