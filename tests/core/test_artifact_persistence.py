"""CompiledBouquet compilation paths and artifact persistence.

Ported from the retired ``BouquetSession``/``CompiledQuery`` suite: the
facade must cover everything the session front door did — compiling
from SQL or parsed queries, explicit dimensions, the all-certain
fallback, execution guards, and the versioned save/load round trip.
"""

import json
import os

import pytest

from repro.api import BouquetConfig, Catalog, CompiledBouquet, compile_bouquet, execute
from repro.drift import bouquets_equal, patch_compiled, perturb_statistics
from repro.exceptions import BouquetError, QueryError, TemplateError
from repro.executor.reference import reference_row_count
from repro.query import parse_query
from repro.query.workload import TABLE2_NAMES
from repro.serve import BouquetArtifactStore, BouquetServer
from repro.template import rebind_compiled, template_signature

EQ_SQL = (
    "select * from lineitem, orders, part "
    "where p_partkey = l_partkey and l_orderkey = o_orderkey "
    "and p_retailprice < 1000"
)


@pytest.fixture(scope="module")
def catalog(schema, statistics, database):
    return Catalog(schema, statistics=statistics, database=database)


@pytest.fixture(scope="module")
def compiled(catalog):
    return compile_bouquet(EQ_SQL, catalog, config=BouquetConfig(resolution=40))


class TestCompile:
    def test_compiles_from_sql(self, compiled):
        assert compiled.bouquet.cardinality >= 1
        assert compiled.space.dimensionality == 1  # only p_retailprice is fallible
        assert compiled.mso_bound <= 4.8 + 1e-9

    def test_compiles_from_query_object(self, catalog, eq_query):
        other = compile_bouquet(
            eq_query, catalog, config=BouquetConfig(resolution=20)
        )
        assert other.bouquet.contours

    def test_explicit_dimensions_respected(self, catalog, eq_query, eq_space):
        compiled = compile_bouquet(
            eq_query,
            catalog,
            config=BouquetConfig(resolution=16),
            dimensions=list(eq_space.dimensions),
        )
        assert compiled.space.dimensions == eq_space.dimensions

    def test_fallback_when_all_predicates_certain(self, catalog):
        """A pure PK-FK join query cascades to the all-predicates fallback."""
        compiled = compile_bouquet(
            "select * from lineitem, orders where l_orderkey = o_orderkey",
            catalog,
            config=BouquetConfig(resolution=12),
        )
        assert compiled.space.dimensionality == 1

    def test_execute_without_database_raises(self, schema, statistics, eq_query):
        catalog = Catalog(schema, statistics=statistics)  # no database
        compiled = compile_bouquet(
            eq_query, catalog, config=BouquetConfig(resolution=12)
        )
        with pytest.raises(BouquetError):
            execute(compiled, None)


class TestPersistence:
    def test_save_load_roundtrip(self, compiled, catalog, tmp_path):
        path = os.path.join(tmp_path, "bouquet.json")
        compiled.save(path)
        loaded = CompiledBouquet.load(path, catalog, query=EQ_SQL)
        assert loaded.bouquet.cardinality == compiled.bouquet.cardinality
        assert [c.cost for c in loaded.bouquet.contours] == pytest.approx(
            [c.cost for c in compiled.bouquet.contours]
        )

    def test_loaded_bouquet_executes_identically(
        self, compiled, catalog, database, tmp_path
    ):
        path = os.path.join(tmp_path, "bouquet.json")
        compiled.save(path)
        loaded = CompiledBouquet.load(path, catalog, query=EQ_SQL)
        a = execute(compiled, database, mode="basic")
        b = execute(loaded, database, mode="basic")
        assert a.result_rows == b.result_rows
        assert b.total_cost == pytest.approx(a.total_cost, rel=1e-6)

    def test_mismatched_query_rejected(self, compiled, catalog, tmp_path):
        path = os.path.join(tmp_path, "bouquet.json")
        compiled.save(path)
        other = "select * from part where p_size < 10"
        with pytest.raises(QueryError):
            CompiledBouquet.load(path, catalog, query=other)

    def test_bad_format_rejected(self, catalog, tmp_path):
        import json

        path = os.path.join(tmp_path, "bogus.json")
        with open(path, "w") as handle:
            json.dump({"format": "not.a.bouquet"}, handle)
        with pytest.raises(BouquetError):
            CompiledBouquet.load(path, catalog, query=EQ_SQL)


def _round_trip(compiled, catalog):
    """``(text, decoded)``: the artifact's JSON text, and the artifact
    decoded from it."""
    text = json.dumps(compiled.to_dict())
    return text, CompiledBouquet.from_dict(json.loads(text), catalog, query=compiled.query)


def _table2_artifacts(lab):
    catalogs = {
        "tpch": Catalog(lab.h_schema, statistics=lab.h_stats, database=lab.h_db),
        "tpcds": Catalog(lab.ds_schema, statistics=lab.ds_stats, database=lab.ds_db),
    }
    for name in TABLE2_NAMES:
        entry = lab.workload[name]
        catalog = catalogs["tpcds" if "DS" in name else "tpch"]
        yield name, catalog, compile_bouquet(
            entry.query, catalog, dimensions=entry.dimensions()
        )


def _rebound_artifact(catalog, templated_generator):
    """The first templated instance whose rebind succeeds."""
    config = BouquetConfig(resolution=8)
    for index in range(20):
        exemplar = templated_generator.instantiate(7, index, 0).query
        if not exemplar.selections:
            continue
        compiled = compile_bouquet(exemplar, catalog, config=config)
        sig = template_signature(exemplar, catalog.schema, catalog.statistics)
        instance = templated_generator.instantiate(7, index, 1).query
        try:
            return rebind_compiled(compiled, sig, instance, catalog).compiled
        except TemplateError:
            continue
    raise AssertionError("no templated instance rebinds")


class TestPackedRoundTrip:
    """The packed envelope decodes to the bouquet it was written from,
    bit for bit, and encodes again to the same text."""

    def _check(self, compiled, catalog):
        text, decoded = _round_trip(compiled, catalog)
        assert bouquets_equal(decoded.bouquet, compiled.bouquet) == []
        assert decoded.config == compiled.config
        assert json.dumps(decoded.to_dict()) == text

    def test_table2_compiles(self, lab):
        for name, catalog, compiled in _table2_artifacts(lab):
            bouquet = compiled.to_dict()["bouquet"]
            assert isinstance(bouquet["diagram_costs"], str), name
            self._check(compiled, catalog)

    def test_template_rebound_artifact(self, catalog, templated_generator):
        self._check(_rebound_artifact(catalog, templated_generator), catalog)

    def test_drift_carried_artifact(self, compiled, schema, statistics, database):
        drifted = perturb_statistics(statistics, "customer", None, scale=1.3)
        moved = Catalog(schema, statistics=drifted, database=database)
        carried = patch_compiled(compiled, moved)
        assert carried.bouquet is not compiled.bouquet
        self._check(carried, moved)

    def test_disk_hit_answers_reference_rows(self, catalog, database, tmp_path):
        config = BouquetConfig(resolution=16)
        with BouquetServer(
            catalog, config=config, store=BouquetArtifactStore(root=str(tmp_path))
        ) as server:
            assert server.serve(EQ_SQL).cache == "compiled"
        with BouquetServer(
            catalog, config=config, store=BouquetArtifactStore(root=str(tmp_path))
        ) as server:
            response = server.serve(EQ_SQL)
        assert (response.status, response.cache) == ("ok", "disk")
        want = reference_row_count(database, parse_query(EQ_SQL, catalog.schema))
        assert response.rows == want


class TestSessionRemoved:
    def test_the_shim_is_gone(self):
        """The deprecation window closed: the serving envelope is the
        only calling convention now."""
        import repro
        import repro.core

        assert not hasattr(repro, "BouquetSession")
        assert not hasattr(repro.core, "CompiledQuery")
        with pytest.raises(ImportError):
            from repro.core.session import BouquetSession  # noqa: F401
