"""The repro.api facade: config validation, compile/execute/simulate,
and warm-cache behaviour."""

from __future__ import annotations

import pytest

from repro.api import (
    BouquetConfig,
    Catalog,
    DEFAULT_CONFIG,
    compile_bouquet,
    execute,
    simulate,
)
from repro.exceptions import BouquetError, BudgetExceeded
from repro.obs import MemorySink, Tracer
from repro.serve import BouquetArtifactStore

SQL = (
    "select * from lineitem, orders, part "
    "where p_partkey = l_partkey and l_orderkey = o_orderkey "
    "and p_retailprice < 1000"
)


@pytest.fixture
def catalog(schema, statistics, database):
    return Catalog(schema, statistics=statistics, database=database)


class TestBouquetConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ratio": 1.0},
            {"ratio": 0.5},
            {"lambda_": -0.1},
            {"resolution": 1},
            {"mode": "turbo"},
            {"model_error_delta": -0.2},
            {"cost_model": "oracle"},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(BouquetError):
            BouquetConfig(**kwargs)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_CONFIG.ratio = 3.0

    def test_with_returns_modified_copy(self):
        config = BouquetConfig()
        changed = config.with_(ratio=4.0, mode="basic")
        assert (changed.ratio, changed.mode) == (4.0, "basic")
        assert (config.ratio, config.mode) == (2.0, "optimized")

    def test_dict_roundtrip(self):
        config = BouquetConfig(ratio=3.0, resolution=10, cost_model="commercial")
        assert BouquetConfig.from_dict(config.to_dict()) == config

    def test_retired_compile_engine_key_is_dropped_on_read(self):
        """The config block exactly as the parent of the engine knob's
        removal wrote it into every envelope; ``equivalence_threshold``
        and ``crossing`` were settable fields then and are dropped on read
        too."""
        written = {
            "ratio": 2.0,
            "lambda_": 0.2,
            "resolution": 16,
            "mode": "optimized",
            "crossing": "sequential",
            "equivalence_threshold": 0.2,
            "model_error_delta": 0.0,
            "cost_model": "postgres",
            "compile_engine": "batch",
            "patch": True,
            "template": True,
        }
        assert BouquetConfig.from_dict(written) == BouquetConfig(resolution=16)
        with pytest.raises(TypeError):
            BouquetConfig.from_dict({**written, "warp_factor": 9})

    def test_default_resolution_scales_with_dimensionality(self):
        config = BouquetConfig()
        assert config.resolution_for(1) > config.resolution_for(3)
        assert config.with_(resolution=9).resolution_for(3) == 9


class TestCompileExecuteSimulate:
    def test_compile_from_sql(self, catalog):
        compiled = compile_bouquet(SQL, catalog, config=BouquetConfig(resolution=16))
        assert compiled.sql == SQL
        assert compiled.space.size == 16
        assert compiled.mso_bound >= 1.0
        assert compiled.bouquet.cardinality >= 1

    def test_execute_and_simulate(self, catalog, database):
        compiled = compile_bouquet(SQL, catalog, config=BouquetConfig(resolution=16))
        real = execute(compiled, database)
        assert real.result_rows is not None and real.result_rows > 0
        sim = simulate(compiled, [0.5])
        assert sim.total_cost > 0
        assert sim.executions

    def test_execute_without_data_refuses(self, catalog):
        compiled = compile_bouquet(SQL, catalog, config=BouquetConfig(resolution=16))
        with pytest.raises(BouquetError):
            execute(compiled, None)

    def test_execute_budget_cap(self, catalog, database):
        compiled = compile_bouquet(SQL, catalog, config=BouquetConfig(resolution=16))
        with pytest.raises(BudgetExceeded):
            execute(compiled, database, budget=1e-3)


class TestArtifactCaching:
    def test_warm_compile_skips_the_optimizer(self, catalog):
        tracer = Tracer(MemorySink())
        store = BouquetArtifactStore()
        config = BouquetConfig(resolution=16)

        def optimized_locations(counters):
            # Scalar calls plus slab locations: the batch engine optimizes
            # whole slabs per DP run instead of bumping optimizer.calls.
            return counters.get("optimizer.calls", 0) + counters.get(
                "optimizer.batched_locations", 0
            )

        cold = compile_bouquet(SQL, catalog, config=config, cache=store, tracer=tracer)
        counters = tracer.snapshot()["counters"]
        cold_calls = optimized_locations(counters)
        assert cold_calls >= 16  # the exhaustive POSP sweep ran
        assert counters["serve.cache.store"] == 1

        warm = compile_bouquet(SQL, catalog, config=config, cache=store, tracer=tracer)
        counters = tracer.snapshot()["counters"]
        assert warm is cold  # the memory tier returns the live artifact
        assert optimized_locations(counters) == cold_calls  # zero new calls
        assert counters["serve.cache.hit_memory"] == 1

    def test_statistics_mutation_misses_the_cache(self, catalog, database):
        store = BouquetArtifactStore()
        config = BouquetConfig(resolution=16)
        cold = compile_bouquet(SQL, catalog, config=config, cache=store)
        assert compile_bouquet(SQL, catalog, config=config, cache=store) is cold

        catalog.statistics = database.build_statistics(sample_size=600, seed=17)
        recompiled = compile_bouquet(SQL, catalog, config=config, cache=store)
        assert recompiled is not cold
        assert len(store) == 2  # old and new world views coexist by key

    def test_explicit_dimensions_bypass_the_cache(self, catalog):
        from repro.ess import ErrorDimension
        from repro.query import parse_query

        store = BouquetArtifactStore()
        config = BouquetConfig(resolution=16)
        query = parse_query(SQL, catalog.schema)
        dims = [ErrorDimension(query.selections[0].pid, 1e-4, 1.0, "x")]
        compile_bouquet(SQL, catalog, config=config, cache=store, dimensions=dims)
        assert len(store) == 0
