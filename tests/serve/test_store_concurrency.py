"""Artifact-store durability under contention and corruption: the
atomic-rename put, stored-key validation, and self-healing purges."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.api import BouquetConfig, Catalog, compile_bouquet
from repro.obs import MemorySink, Tracer
from repro.serve import (
    BouquetArtifactStore,
    BouquetServer,
    STORE_FORMAT,
    artifact_key,
)

SQL = (
    "select * from lineitem, orders, part "
    "where p_partkey = l_partkey and l_orderkey = o_orderkey "
    "and p_retailprice < 1000"
)


@pytest.fixture(scope="module")
def artifact(schema, statistics, database):
    """One compiled artifact plus its content-hash key."""
    catalog = Catalog(schema, statistics=statistics, database=database)
    config = BouquetConfig(resolution=16)
    compiled = compile_bouquet(SQL, catalog, config=config)
    key = artifact_key(compiled.query, statistics, config)
    return catalog, key, compiled


def _counters(tracer):
    return tracer.snapshot()["counters"]


def _run_threads(workers):
    barrier = threading.Barrier(len(workers))
    errors = []

    def wrap(fn):
        def run():
            barrier.wait()
            try:
                fn()
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        return run

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


def test_concurrent_puts_leave_one_complete_envelope(artifact, tmp_path, envelope_path):
    """Hammer the same digest from many threads: every write goes through
    a private temp file and an atomic rename, so the surviving envelope
    is complete and no temp droppings remain."""
    catalog, key, compiled = artifact
    store = BouquetArtifactStore(root=str(tmp_path))

    errors = _run_threads([lambda: store.put(key, compiled)] * 16)
    assert not errors

    names = os.listdir(str(tmp_path))
    assert names == [os.path.basename(envelope_path(tmp_path, key))]
    assert not any(name.endswith(".tmp") for name in names)

    envelope = json.load(open(envelope_path(tmp_path, key)))
    assert envelope["format"] == STORE_FORMAT
    assert envelope["key"]["query_digest"] == key.query_digest
    assert envelope["key"]["statistics_digest"] == key.statistics_digest
    assert envelope["key"]["config_digest"] == key.config_digest

    # A cold store over the same root rehydrates it cleanly.
    fresh = BouquetArtifactStore(root=str(tmp_path))
    hit, tier = fresh.lookup(key, catalog)
    assert tier == "disk"
    assert hit.mso_bound == pytest.approx(compiled.mso_bound)


def test_concurrent_put_lookup_invalidate_on_one_root(artifact, tmp_path):
    """Writers, readers, and an invalidation sweep race on one disk root
    without errors; afterwards the store is either empty or serving the
    artifact, never wedged in between."""
    catalog, key, compiled = artifact
    store = BouquetArtifactStore(root=str(tmp_path))
    store.put(key, compiled)

    def reader():
        for _ in range(20):
            hit, tier = store.lookup(key, catalog)
            assert (hit is None) == (tier is None)

    def writer():
        for _ in range(10):
            store.put(key, compiled)

    def invalidator():
        for _ in range(5):
            store.invalidate_statistics("somebody-else")

    errors = _run_threads([reader, reader, writer, writer, invalidator])
    assert not errors
    assert not any(
        name.endswith(".tmp") for name in os.listdir(str(tmp_path))
    )

    # Settle: one more put, then the entry must be fully servable.
    store.put(key, compiled)
    hit, tier = store.lookup(key, catalog)
    assert tier == "memory"
    assert hit is compiled


def test_corrupt_envelope_is_missed_and_purged(artifact, tmp_path, envelope_path):
    catalog, key, compiled = artifact
    BouquetArtifactStore(root=str(tmp_path)).put(key, compiled)
    path = envelope_path(tmp_path, key)
    with open(path, "w") as handle:
        handle.write("{truncated garbage")

    tracer = Tracer(MemorySink())
    store = BouquetArtifactStore(root=str(tmp_path), tracer=tracer)
    assert store.lookup(key, catalog) == (None, None)
    # The corrupt file was removed, not left to fail on every request.
    assert not os.path.exists(path)
    counters = _counters(tracer)
    assert counters["serve.cache.purged"] == 1
    assert counters["serve.cache.miss"] == 1

    # The store heals: a re-put followed by a cold read works again.
    store.put(key, compiled)
    fresh = BouquetArtifactStore(root=str(tmp_path))
    _, tier = fresh.lookup(key, catalog)
    assert tier == "disk"


def test_key_mismatch_envelope_is_purged(artifact, tmp_path, envelope_path):
    """An envelope whose stored key disagrees with its filename digest
    (e.g. a file copied between cache roots) must not be served."""
    catalog, key, compiled = artifact
    BouquetArtifactStore(root=str(tmp_path)).put(key, compiled)
    path = envelope_path(tmp_path, key)
    envelope = json.load(open(path))
    envelope["key"]["statistics_digest"] = "forged"
    with open(path, "w") as handle:
        json.dump(envelope, handle)

    tracer = Tracer(MemorySink())
    store = BouquetArtifactStore(root=str(tmp_path), tracer=tracer)
    assert store.lookup(key, catalog) == (None, None)
    assert not os.path.exists(path)
    assert _counters(tracer)["serve.cache.purged"] == 1


def test_unknown_format_envelope_is_purged(artifact, tmp_path, envelope_path):
    catalog, key, compiled = artifact
    BouquetArtifactStore(root=str(tmp_path)).put(key, compiled)
    path = envelope_path(tmp_path, key)
    envelope = json.load(open(path))
    envelope["format"] = "repro.serve.artifact.v99"
    with open(path, "w") as handle:
        json.dump(envelope, handle)

    store = BouquetArtifactStore(root=str(tmp_path))
    assert store.lookup(key, catalog) == (None, None)
    assert not os.path.exists(path)


def test_bad_artifact_payload_is_purged(artifact, tmp_path, envelope_path):
    """Valid envelope, undeserializable artifact body: purged, not raised."""
    catalog, key, compiled = artifact
    BouquetArtifactStore(root=str(tmp_path)).put(key, compiled)
    path = envelope_path(tmp_path, key)
    envelope = json.load(open(path))
    envelope["artifact"] = {"not": "an artifact"}
    with open(path, "w") as handle:
        json.dump(envelope, handle)

    tracer = Tracer(MemorySink())
    store = BouquetArtifactStore(root=str(tmp_path), tracer=tracer)
    assert store.lookup(key, catalog) == (None, None)
    assert not os.path.exists(path)
    assert _counters(tracer)["serve.cache.purged"] == 1


def test_envelope_with_retired_config_key_is_a_disk_hit(
    artifact, tmp_path, envelope_path
):
    """Every envelope written while ``BouquetConfig`` still had its
    compile-engine selector carries that key; the key never entered the
    artifact key, so the disk tier must load it — not purge and
    recompile."""
    catalog, key, compiled = artifact
    BouquetArtifactStore(root=str(tmp_path)).put(key, compiled)
    path = envelope_path(tmp_path, key)
    envelope = json.load(open(path))
    envelope["artifact"]["config"]["compile_engine"] = "batch"
    with open(path, "w") as handle:
        json.dump(envelope, handle)

    tracer = Tracer(MemorySink())
    store = BouquetArtifactStore(root=str(tmp_path), tracer=tracer)
    hit, tier = store.lookup(key, catalog)
    assert tier == "disk"
    assert hit.config == compiled.config
    assert hit.mso_bound == pytest.approx(compiled.mso_bound)
    assert os.path.exists(path)
    assert _counters(tracer).get("serve.cache.purged", 0) == 0


def test_parent_written_envelope_serves_from_the_disk_tier(
    artifact, tmp_path, envelope_path
):
    """Until ``equivalence_threshold`` became a read-only constant every
    envelope's config block carried it; such an envelope must still load
    and answer a request from the disk tier."""
    catalog, key, compiled = artifact
    BouquetArtifactStore(root=str(tmp_path)).put(key, compiled)
    path = envelope_path(tmp_path, key)
    envelope = json.load(open(path))
    assert "equivalence_threshold" not in envelope["artifact"]["config"]
    envelope["artifact"]["config"]["equivalence_threshold"] = 0.2
    with open(path, "w") as handle:
        json.dump(envelope, handle)

    tracer = Tracer(MemorySink())
    store = BouquetArtifactStore(root=str(tmp_path), tracer=tracer)
    with BouquetServer(
        catalog, config=compiled.config, store=store, tracer=tracer
    ) as server:
        response = server.serve(SQL)
    assert (response.status, response.cache) == ("ok", "disk")
    counters = _counters(tracer)
    assert counters.get("serve.cache.purged", 0) == 0
    assert counters.get("optimizer.batched_locations", 0) == 0
