"""BouquetArtifactStore: LRU memory tier over the durable disk tier."""

from __future__ import annotations

import json
import os
from types import SimpleNamespace

import pytest

from repro.api import BouquetConfig, Catalog, compile_bouquet
from repro.exceptions import BouquetError
from repro.obs import MemorySink, Tracer
from repro.serve import BouquetArtifactStore, BouquetServer, STORE_FORMAT, artifact_key
from repro.serve import cache as cache_module

SQL = (
    "select * from lineitem, orders, part "
    "where p_partkey = l_partkey and l_orderkey = o_orderkey "
    "and p_retailprice < 1000"
)
SQL2 = (
    "select * from lineitem, orders "
    "where l_orderkey = o_orderkey and o_totalprice < 150000"
)


@pytest.fixture(scope="module")
def world(schema, statistics, database):
    """Two compiled artifacts under distinct keys (different resolutions)."""
    catalog = Catalog(schema, statistics=statistics, database=database)
    cfg_a = BouquetConfig(resolution=16)
    cfg_b = BouquetConfig(resolution=12)
    compiled_a = compile_bouquet(SQL, catalog, config=cfg_a)
    compiled_b = compile_bouquet(SQL, catalog, config=cfg_b)
    key_a = artifact_key(compiled_a.query, statistics, cfg_a)
    key_b = artifact_key(compiled_b.query, statistics, cfg_b)
    assert key_a.digest != key_b.digest
    return catalog, (key_a, compiled_a), (key_b, compiled_b)


def _counters(tracer):
    return tracer.snapshot()["counters"]


def test_capacity_must_be_positive():
    with pytest.raises(BouquetError):
        BouquetArtifactStore(capacity=0)


def test_memory_tier_hit_and_counters(world):
    catalog, (key, compiled), _ = world
    tracer = Tracer(MemorySink())
    store = BouquetArtifactStore(tracer=tracer)

    assert store.lookup(key, catalog) == (None, None)
    assert _counters(tracer)["serve.cache.miss"] == 1

    store.put(key, compiled)
    hit, tier = store.lookup(key, catalog)
    assert hit is compiled
    assert tier == "memory"
    assert _counters(tracer)["serve.cache.hit_memory"] == 1
    assert _counters(tracer)["serve.cache.store"] == 1
    assert len(store) == 1


def test_memory_only_store_forgets_on_eviction(world):
    catalog, (key_a, compiled_a), (key_b, compiled_b) = world
    store = BouquetArtifactStore(capacity=1)
    store.put(key_a, compiled_a)
    store.put(key_b, compiled_b)
    assert len(store) == 1
    assert store.get(key_a, catalog) is None
    assert store.get(key_b, catalog) is compiled_b


def test_eviction_spills_to_disk_not_to_recompile(world, tmp_path):
    catalog, (key_a, compiled_a), (key_b, compiled_b) = world
    tracer = Tracer(MemorySink())
    store = BouquetArtifactStore(root=str(tmp_path), capacity=1, tracer=tracer)
    store.put(key_a, compiled_a)
    store.put(key_b, compiled_b)  # evicts A from memory; disk copy remains
    assert _counters(tracer)["serve.cache.evict"] == 1
    assert store.snapshot() == {"memory_entries": 1, "disk_entries": 2}

    hit, tier = store.lookup(key_a, catalog)
    assert tier == "disk"
    assert _counters(tracer)["serve.cache.hit_disk"] == 1
    # The rehydrated artifact is semantically the one we stored.
    assert hit.mso_bound == pytest.approx(compiled_a.mso_bound)
    assert hit.bouquet.cardinality == compiled_a.bouquet.cardinality
    assert [c.cost for c in hit.bouquet.contours] == pytest.approx(
        [c.cost for c in compiled_a.bouquet.contours]
    )
    # Reloading promoted it back into the (full) memory tier, evicting B.
    assert store.get(key_a, catalog) is hit


def test_disk_tier_survives_process_restart(world, tmp_path, envelope_path):
    catalog, (key, compiled), _ = world
    writer = BouquetArtifactStore(root=str(tmp_path))
    writer.put(key, compiled)

    reader = BouquetArtifactStore(root=str(tmp_path))
    assert reader.snapshot()["disk_entries"] == 1
    hit, tier = reader.lookup(key, catalog)
    assert tier == "disk"
    assert hit.mso_bound == pytest.approx(compiled.mso_bound)

    path = envelope_path(tmp_path, key)
    with open(path) as handle:
        text = handle.read()
    envelope = json.loads(text)
    assert envelope["format"] == STORE_FORMAT
    assert envelope["key"]["statistics_digest"] == key.statistics_digest
    # put writes json.dumps(envelope) whole (the C encoder), through a
    # temp file that os.replace leaves nothing of.
    assert text == json.dumps(envelope)
    assert envelope["artifact"] == compiled.to_dict()
    assert os.listdir(str(tmp_path)) == [os.path.basename(path)]


def test_corrupt_disk_entry_is_a_miss(world, tmp_path, envelope_path):
    catalog, (key, compiled), _ = world
    store = BouquetArtifactStore(root=str(tmp_path))
    store.put(key, compiled)
    path = envelope_path(tmp_path, key)
    with open(path, "w") as handle:
        handle.write("{not json")
    fresh = BouquetArtifactStore(root=str(tmp_path))
    assert fresh.lookup(key, catalog) == (None, None)


def test_invalidate_statistics_drops_stale_entries(world, tmp_path):
    catalog, (key_a, compiled_a), (key_b, compiled_b) = world
    tracer = Tracer(MemorySink())
    store = BouquetArtifactStore(root=str(tmp_path), tracer=tracer)
    store.put(key_a, compiled_a)
    store.put(key_b, compiled_b)

    # Same fingerprint: nothing to do.
    assert store.invalidate_statistics(key_a.statistics_digest) == 0
    assert store.snapshot() == {"memory_entries": 2, "disk_entries": 2}

    # New world view: both entries (same stats digest) go, counted once
    # each even though they live in both tiers.
    removed = store.invalidate_statistics("somebody-else")
    assert removed == 2
    assert _counters(tracer)["serve.cache.invalidated"] == 2
    assert store.snapshot() == {"memory_entries": 0, "disk_entries": 0}
    assert store.lookup(key_a, catalog) == (None, None)


def test_clear_empties_both_tiers(world, tmp_path):
    catalog, (key, compiled), _ = world
    store = BouquetArtifactStore(root=str(tmp_path))
    store.put(key, compiled)
    store.clear()
    assert store.snapshot() == {"memory_entries": 0, "disk_entries": 0}


def test_a_flat_envelope_is_never_served_and_is_swept(world, tmp_path, envelope_path):
    """An envelope under the pre-statistics-prefix name ``<digest>.json``
    has no reader: a lookup misses it, and the next sweep deletes it."""
    catalog, (key_a, compiled_a), (key_b, compiled_b) = world
    writer = BouquetArtifactStore(root=str(tmp_path))
    writer.put(key_a, compiled_a)
    writer.put(key_b, compiled_b)
    flat = os.path.join(str(tmp_path), f"{key_b.digest}.json")
    os.replace(envelope_path(tmp_path, key_b), flat)

    store = BouquetArtifactStore(root=str(tmp_path))
    assert store.lookup(key_b, catalog) == (None, None)
    assert os.path.exists(flat)

    assert store.invalidate_statistics(key_a.statistics_digest) == 1
    assert sorted(os.listdir(str(tmp_path))) == [
        os.path.basename(envelope_path(tmp_path, key_a))
    ]
    assert store.lookup(key_a, catalog)[1] == "disk"


def _refreshed(database):
    """Statistics from another sample: the fingerprint moves, no compile
    input of ``SQL`` does, so its artifact carries over."""
    return database.build_statistics(sample_size=800, seed=5)


def test_a_refresh_opens_no_envelope(catalog, small_config, database, tmp_path, monkeypatch):
    """Neither ``refresh_statistics`` nor ``invalidate_statistics`` decodes
    a disk envelope: the memory tier is carried over, the disk is swept
    by name."""
    tracer = Tracer(MemorySink())
    store = BouquetArtifactStore(root=str(tmp_path), capacity=1, tracer=tracer)
    with BouquetServer(catalog, config=small_config, store=store, tracer=tracer) as server:
        assert server.serve(SQL2).cache == "compiled"
        assert server.serve(SQL).cache == "compiled"  # SQL2 is now disk-only

        def no_decoding(*args, **kwargs):
            raise AssertionError("a disk envelope was decoded")

        monkeypatch.setattr(
            cache_module, "json", SimpleNamespace(load=no_decoding, dumps=json.dumps)
        )
        assert server.refresh_statistics(_refreshed(database)) == 2
        counters = tracer.counters
        assert counters["serve.cache.patched"] == 1
        assert counters["serve.cache.invalidated"] == 2
        assert store.invalidate_statistics("somebody-else") == 1
        monkeypatch.undo()
    assert store.snapshot() == {"memory_entries": 0, "disk_entries": 0}


def test_a_disk_only_artifact_with_sql_is_not_carried_over(
    catalog, small_config, database, tmp_path, envelope_path
):
    """A refresh carries over the memory tier only.  An artifact of the
    old world that lives on disk alone is swept even when its envelope
    stores the SQL that could rehydrate it, and recompiles on its next
    request."""
    tracer = Tracer(MemorySink())
    store = BouquetArtifactStore(root=str(tmp_path), capacity=1, tracer=tracer)
    with BouquetServer(catalog, config=small_config, store=store, tracer=tracer) as server:
        _, old_key = server._prepare(SQL)
        assert server.compile(SQL)[1] == "compiled"
        assert server.compile(SQL2)[1] == "compiled"  # SQL is now disk-only
        with open(envelope_path(tmp_path, old_key)) as handle:
            assert json.load(handle)["artifact"]["sql"] == SQL

        server.refresh_statistics(_refreshed(database))
        assert not os.path.exists(envelope_path(tmp_path, old_key))
        assert tracer.counters["serve.cache.patched"] == 1  # SQL2 only
        served = server.serve(SQL)
    assert (served.status, served.cache) == ("ok", "compiled")
