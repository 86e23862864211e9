"""Guard that the README / package-docstring code snippets actually run."""

README_SQL = (
    "select * from lineitem, orders, part "
    "where p_partkey = l_partkey and l_orderkey = o_orderkey "
    "and p_retailprice < 1000"
)


class TestReadmeSnippets:
    def test_api_quickstart_snippet(self):
        from repro import BouquetConfig, Catalog, Database, tpch_schema
        from repro import compile_bouquet, execute, simulate
        from repro.catalog import tpch_generator_spec

        schema = tpch_schema(0.002)
        db = Database.generate(schema, tpch_generator_spec(0.002), seed=42)
        catalog = Catalog(
            schema, statistics=db.build_statistics(sample_size=500), database=db
        )
        compiled = compile_bouquet(
            README_SQL,
            catalog,
            config=BouquetConfig(resolution=16, lambda_=0.2, ratio=2.0),
        )
        assert compiled.bouquet.describe()
        assert compiled.mso_bound > 0
        result = simulate(compiled, [0.6])
        assert result.completed
        real = execute(compiled, db)
        assert real.result_rows is not None
        assert real.execution_count >= 1

    def test_artifact_store_snippet(self, tmp_path):
        from repro import BouquetArtifactStore, BouquetServer, Catalog, Database
        from repro import ServeRequest, tpch_schema
        from repro.api import BouquetConfig
        from repro.catalog import tpch_generator_spec

        schema = tpch_schema(0.002)
        db = Database.generate(schema, tpch_generator_spec(0.002), seed=42)
        catalog = Catalog(
            schema, statistics=db.build_statistics(sample_size=500), database=db
        )
        store = BouquetArtifactStore(root=str(tmp_path))
        with BouquetServer(
            catalog,
            config=BouquetConfig(resolution=16),
            store=store,
            compile_timeout=30.0,
        ) as server:
            served = server.serve(ServeRequest(query=README_SQL, budget=1e9))
            assert served.status == "ok"
            assert served.cache == "compiled"
            assert served.rows is not None
            dropped = server.refresh_statistics(
                db.build_statistics(sample_size=1000)
            )
            assert dropped == 1

    def test_quickstart_snippet(self):
        from repro import Lab, simulate_at

        lab = Lab(
            tpch_scale=0.002,
            tpcds_scale=0.002,
            stats_sample=500,
            resolutions={3: 8},
        )
        ql = lab.build("3D_DS_Q96")
        assert ql.bouquet.describe()
        assert ql.bouquet.mso_bound > 0
        result = simulate_at(ql.bouquet, (4, 7, 2), mode="optimized")
        assert result.completed
        assert result.total_cost / ql.diagram.cost_at((4, 7, 2)) >= 1.0

    def test_real_execution_snippet(self):
        from repro import ExecutionEngine, Lab, RealExecutionService
        from repro.core import BouquetRunner

        lab = Lab(
            tpch_scale=0.002,
            tpcds_scale=0.002,
            stats_sample=500,
            resolutions={3: 8},
        )
        ql = lab.build("3D_DS_Q96")
        engine = ExecutionEngine(lab.ds_db)
        service = RealExecutionService(ql.bouquet, engine)
        result = BouquetRunner(ql.bouquet, service, mode="optimized").run()
        assert result.completed
        assert result.result_rows is not None

    def test_batch_compile_snippet(self):
        from repro import BouquetConfig, Catalog, Database, tpch_schema
        from repro import compile_bouquet
        from repro.catalog import tpch_generator_spec

        schema = tpch_schema(0.002)
        db = Database.generate(schema, tpch_generator_spec(0.002), seed=42)
        catalog = Catalog(
            schema, statistics=db.build_statistics(sample_size=500), database=db
        )
        compiled = compile_bouquet(
            README_SQL, catalog, config=BouquetConfig(resolution=16)
        )
        space, diagram = compiled.space, compiled.bouquet.diagram
        # One location's DP agrees with the grid's.
        scalar = catalog.optimizer().optimize(
            space.query, assignment=space.assignment_at(space.corner)
        )
        assert scalar.cost == diagram.cost_at(space.corner)

    def test_serving_snippet(self):
        """The README's async-serving quickstart: envelope in, typed
        response out, through the gateway's admission control."""
        from repro import (
            BouquetConfig,
            Catalog,
            Database,
            BouquetServer,
            ServeGateway,
            ServeRequest,
            tpch_schema,
        )
        from repro.catalog import tpch_generator_spec

        schema = tpch_schema(0.002)
        db = Database.generate(schema, tpch_generator_spec(0.002), seed=1)
        stats = db.build_statistics(sample_size=500)
        catalog = Catalog(schema, statistics=stats, database=db)
        with BouquetServer(
            catalog, config=BouquetConfig(resolution=16)
        ) as server:
            gateway = ServeGateway(server)
            response = gateway.handle(
                ServeRequest(
                    query="select count(*) from lineitem, orders, part "
                    "where p_partkey = l_partkey and l_orderkey = o_orderkey "
                    "and p_retailprice < 1000 group by p_brand",
                    tenant="readme",
                )
            )
        assert response.ok
        assert response.tenant == "readme"
        assert response.rows is not None
