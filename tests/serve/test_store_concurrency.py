"""Artifact-store durability under contention and corruption: the
atomic-rename put, stored-key validation, and self-healing purges."""

from __future__ import annotations

import base64
import json
import os
import threading

import pytest

from repro.api import BouquetConfig, Catalog, CompiledBouquet, compile_bouquet
from repro.exceptions import BouquetError
from repro.executor.reference import reference_row_count
from repro.obs import MemorySink, Tracer
from repro.query import parse_query
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


def _truncated_base64(bouquet):
    bouquet["diagram_costs"] = bouquet["diagram_costs"][:-1]


def _wrong_byte_length(bouquet):
    raw = base64.b64decode(bouquet["diagram_plan_ids"])
    bouquet["diagram_plan_ids"] = base64.b64encode(raw[:-8]).decode("ascii")


def _unstored_plan_id(bouquet):
    raw = bytearray(base64.b64decode(bouquet["diagram_plan_ids"]))
    raw[:8] = (10**6).to_bytes(8, "little")
    bouquet["diagram_plan_ids"] = base64.b64encode(bytes(raw)).decode("ascii")


def _join_row(nodes):
    return next(at for at, row in enumerate(nodes) if row[0] == "join")


def _forward_node_reference(bouquet):
    at = _join_row(bouquet["nodes"])
    bouquet["nodes"][at][3] = at


def _missing_node_reference(bouquet):
    nodes = bouquet["nodes"]
    nodes[_join_row(nodes)][4] = len(nodes) + 5


def _unknown_node_kind(bouquet):
    bouquet["nodes"][0][0] = "quantum_scan"


@pytest.mark.parametrize(
    "corrupt",
    [
        _truncated_base64,
        _wrong_byte_length,
        _unstored_plan_id,
        _forward_node_reference,
        _missing_node_reference,
        _unknown_node_kind,
    ],
)
def test_corrupt_packed_payload_is_a_typed_reject(
    artifact, tmp_path, envelope_path, corrupt
):
    """Each corruption of the packed payload is a :class:`BouquetError`:
    the disk tier purges the envelope (no exception escapes the lookup)
    and ``CompiledBouquet.load`` raises it."""
    catalog, key, compiled = artifact
    BouquetArtifactStore(root=str(tmp_path)).put(key, compiled)
    path = envelope_path(tmp_path, key)
    envelope = json.load(open(path))
    corrupt(envelope["artifact"]["bouquet"])
    with open(path, "w") as handle:
        json.dump(envelope, handle)
    saved = os.path.join(str(tmp_path), "saved.json")
    with open(saved, "w") as handle:
        json.dump(envelope["artifact"], handle)

    tracer = Tracer(MemorySink())
    store = BouquetArtifactStore(root=str(tmp_path), tracer=tracer)
    assert store.lookup(key, catalog) == (None, None)
    assert not os.path.exists(path)
    assert _counters(tracer)["serve.cache.purged"] == 1
    (event,) = tracer.sink.events("serve.cache.purge")
    assert event["attrs"]["reason"] == "bad-artifact"
    with pytest.raises(BouquetError):
        CompiledBouquet.load(saved, catalog, query=SQL)


def _v2_shaped(envelope):
    """The envelope as the previous format wrote it: format tags one
    version back, each plan a nested dict, the diagram arrays printed as
    JSON numbers, and the config's ``crossing`` / ``patch`` keys."""
    artifact = envelope["artifact"]
    bouquet = artifact["bouquet"]
    nodes = bouquet.pop("nodes")

    def nested(at):
        kind, *fields = nodes[at]
        if kind == "join":
            algo, join_pids, left, right = fields
            return {"node": kind, "algo": algo, "join_pids": join_pids,
                    "left": nested(left), "right": nested(right)}
        if kind == "aggregate":
            groups, child = fields
            return {"node": kind, "group_columns": groups, "child": nested(child)}
        return {"node": kind, "table": fields[0], "filters": fields[-1]}

    bouquet["plans"] = {str(pid): nested(root) for pid, root in bouquet["plans"]}
    for name, dtype in (("diagram_plan_ids", "<i8"), ("diagram_costs", "<f8")):
        raw = base64.b64decode(bouquet[name])
        bouquet[name] = memoryview(raw).cast("q" if dtype == "<i8" else "d").tolist()
    bouquet["format"] = "repro.bouquet.v1"
    artifact["format"] = "repro.bouquet.artifact.v2"
    artifact["config"].update(crossing="sequential", patch=True)
    envelope["format"] = "repro.serve.artifact.v2"
    return envelope


def test_v2_envelope_is_purged_and_recompiled(artifact, tmp_path, envelope_path, database):
    """An envelope of the previous format is not read: it is purged as
    ``unknown-format``, the request recompiles and answers the right
    rows, and the disk tier then holds the current format."""
    catalog, key, compiled = artifact
    BouquetArtifactStore(root=str(tmp_path)).put(key, compiled)
    path = envelope_path(tmp_path, key)
    envelope = _v2_shaped(json.load(open(path)))
    with open(path, "w") as handle:
        json.dump(envelope, handle)
    saved = os.path.join(str(tmp_path), "saved.json")
    with open(saved, "w") as handle:
        json.dump(envelope["artifact"], handle)
    with pytest.raises(BouquetError):
        CompiledBouquet.load(saved, catalog, query=SQL)

    tracer = Tracer(MemorySink())
    store = BouquetArtifactStore(root=str(tmp_path), tracer=tracer)
    with BouquetServer(
        catalog, config=compiled.config, store=store, tracer=tracer
    ) as server:
        response = server.serve(SQL)
    assert (response.status, response.cache) == ("ok", "compiled")
    assert response.rows == reference_row_count(database, parse_query(SQL, catalog.schema))
    assert _counters(tracer)["serve.cache.purged"] == 1
    (event,) = tracer.sink.events("serve.cache.purge")
    assert event["attrs"]["reason"] == "unknown-format"
    assert json.load(open(path))["format"] == STORE_FORMAT
