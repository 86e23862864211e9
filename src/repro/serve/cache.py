"""The bouquet artifact cache: in-memory LRU over a durable disk store.

Artifacts are keyed by the content hash of (canonical query, statistics
fingerprint, compile knobs) — see :mod:`repro.serve.fingerprint`.  The
memory tier holds live :class:`~repro.api.CompiledBouquet` objects (a
hit costs a dict lookup); the disk tier holds the versioned JSON
envelope and survives process restarts, which is what makes the §4.2
"compile once, execute many" amortization real across deployments.

On disk an envelope is named by its statistics world:
``<statistics_digest>-<digest>.json``.  A statistics refresh therefore
sweeps the disk tier by name, opening no file, and carries over only
the memory tier (:meth:`BouquetArtifactStore.stale_entries`).

Telemetry (all through the attached tracer, zero-overhead when null):

* ``serve.cache.hit_memory`` / ``serve.cache.hit_disk`` /
  ``serve.cache.miss`` — lookup outcomes;
* ``serve.cache.store`` — artifacts written;
* ``serve.cache.evict`` — memory-LRU evictions (the disk copy remains);
* ``serve.cache.invalidated`` — entries dropped because their
  statistics fingerprint no longer matches the live catalog;
* ``serve.cache.purged`` — corrupt or key-mismatched disk envelopes
  deleted on lookup (instead of being re-parsed forever).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..exceptions import BouquetError, ReproError
from ..obs.tracer import NULL_TRACER, Tracer
from .fingerprint import ArtifactKey

__all__ = ["BouquetArtifactStore", "STORE_FORMAT"]

#: Format tag of the on-disk cache envelope (key + artifact payload).
#: v3 carries the packed ``repro.bouquet.v2`` payload (diagram arrays as
#: base64 bytes, plans as one node table).  A lookup matches only when
#: *all* three key digests agree; an envelope that fails validation,
#: fails to parse or has another format tag is purged, and recompiles.
STORE_FORMAT = "repro.serve.artifact.v3"


class BouquetArtifactStore:
    """Two-tier (memory LRU + disk) store for compiled-bouquet artifacts.

    ``root=None`` keeps the store memory-only; otherwise artifacts are
    persisted as ``<statistics_digest>-<digest>.json`` under ``root``
    and reloaded lazily.
    ``capacity`` bounds only the memory tier — an evicted entry's disk
    copy remains and reloading it is a disk hit, not a recompile.
    All operations are thread-safe.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        capacity: int = 32,
        tracer: Optional[Tracer] = None,
    ):
        if capacity < 1:
            raise BouquetError("artifact cache capacity must be at least 1")
        self.root = root
        self.capacity = int(capacity)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._lock = threading.RLock()
        self._memory: "OrderedDict[str, Tuple[ArtifactKey, object]]" = OrderedDict()
        if root is not None:
            os.makedirs(root, exist_ok=True)

    # ------------------------------------------------------------------

    def _path(self, key: ArtifactKey) -> str:
        name = f"{key.statistics_digest}-{key.digest}.json"
        return os.path.join(self.root, name)  # type: ignore[arg-type]

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------

    def get(
        self,
        key: ArtifactKey,
        catalog,
        query=None,
        tracer: Optional[Tracer] = None,
    ):
        """Return the cached :class:`~repro.api.CompiledBouquet` or None.

        ``catalog`` (and optionally the parsed ``query``) are needed to
        rehydrate a disk entry: plans are re-registered against a fresh
        optimizer built from the catalog.
        """
        compiled, _ = self.lookup(key, catalog, query=query, tracer=tracer)
        return compiled

    def lookup(
        self,
        key: ArtifactKey,
        catalog,
        query=None,
        tracer: Optional[Tracer] = None,
    ):
        """Like :meth:`get` but also reports which tier answered:
        ``(compiled, "memory" | "disk")`` on a hit, ``(None, None)`` on a
        miss."""
        tracer = tracer if tracer is not None else self.tracer
        digest = key.digest
        with self._lock:
            entry = self._memory.get(digest)
            if entry is not None:
                self._memory.move_to_end(digest)
                if tracer.enabled:
                    tracer.count("serve.cache.hit_memory")
                return entry[1], "memory"
        if self.root is not None:
            path = self._path(key)
            if os.path.exists(path):
                compiled = self._load_disk(path, key, catalog, query, tracer)
                if compiled is not None:
                    with self._lock:
                        self._insert_memory(key, compiled, tracer)
                    if tracer.enabled:
                        tracer.count("serve.cache.hit_disk")
                    return compiled, "disk"
        if tracer.enabled:
            tracer.count("serve.cache.miss")
        return None, None

    def put(self, key: ArtifactKey, compiled, tracer: Optional[Tracer] = None) -> None:
        """Insert an artifact into both tiers."""
        tracer = tracer if tracer is not None else self.tracer
        digest = key.digest
        with self._lock:
            self._insert_memory(key, compiled, tracer)
        if self.root is not None:
            envelope = {
                "format": STORE_FORMAT,
                "key": {
                    "query_text": key.query_text,
                    "query_digest": key.query_digest,
                    "statistics_digest": key.statistics_digest,
                    "config_digest": key.config_digest,
                },
                "artifact": compiled.to_dict(),
            }
            # A unique temp file per writer: concurrent puts of the same
            # digest must never interleave JSON into a shared scratch
            # path; whichever os.replace lands last wins with a complete
            # envelope.
            fd, tmp = tempfile.mkstemp(
                prefix=f"{digest}.", suffix=".tmp", dir=self.root
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    # dumps, not dump: dump iterates the pure-Python
                    # encoder chunk by chunk; same bytes, the C encoder.
                    handle.write(json.dumps(envelope))
                os.replace(tmp, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        if tracer.enabled:
            tracer.count("serve.cache.store")

    def _insert_memory(self, key: ArtifactKey, compiled, tracer: Tracer) -> None:
        digest = key.digest
        self._memory[digest] = (key, compiled)
        self._memory.move_to_end(digest)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            if tracer.enabled:
                tracer.count("serve.cache.evict")

    def _purge(self, path: str, tracer: Tracer, reason: str) -> None:
        """Delete an unusable disk envelope so it is not re-parsed (and
        re-rejected) on every subsequent lookup."""
        try:
            os.unlink(path)
        except OSError:
            return
        if tracer.enabled:
            tracer.count("serve.cache.purged")
            tracer.event("serve.cache.purge", path=path, reason=reason)

    def _load_disk(
        self,
        path: str,
        key: ArtifactKey,
        catalog,
        query,
        tracer: Optional[Tracer] = None,
    ):
        from ..api import CompiledBouquet

        tracer = tracer if tracer is not None else self.tracer
        try:
            with open(path) as handle:
                envelope = json.load(handle)
        except OSError:
            return None
        except ValueError:
            self._purge(path, tracer, "unparseable")
            return None
        if envelope.get("format") != STORE_FORMAT:
            self._purge(path, tracer, "unknown-format")
            return None
        # The on-disk name is a hash of the combined key, so a name
        # collision aside, a mismatch here means the envelope was written
        # for a *different* (query, statistics, config) world — validate
        # every component, not just the statistics digest, or a stale or
        # tampered file rehydrates the wrong artifact.
        stored = envelope.get("key", {})
        if (
            stored.get("query_digest") != key.query_digest
            or stored.get("statistics_digest") != key.statistics_digest
            or stored.get("config_digest") != key.config_digest
        ):
            self._purge(path, tracer, "key-mismatch")
            return None
        try:
            return CompiledBouquet.from_dict(envelope["artifact"], catalog, query)
        except (ReproError, KeyError, TypeError, ValueError):
            self._purge(path, tracer, "bad-artifact")
            return None

    # ------------------------------------------------------------------
    # Maintenance accessors
    # ------------------------------------------------------------------

    def stale_entries(self, current_fingerprint: str):
        """``(key, compiled)`` for every memory-resident artifact keyed to
        a statistics fingerprint other than ``current_fingerprint``.

        This is the server patch path's work list: each entry is offered
        to :func:`repro.drift.refresh.patch_compiled` before
        :meth:`invalidate_statistics` sweeps whatever did not carry over.
        A disk-only artifact of the old world is not read: it is swept,
        and recompiles (or rebinds) on its next request.
        """
        with self._lock:
            return [
                (key, compiled)
                for key, compiled in self._memory.values()
                if key.statistics_digest != current_fingerprint
            ]

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def invalidate_statistics(
        self, current_fingerprint: str, tracer: Optional[Tracer] = None
    ) -> int:
        """Drop every entry whose statistics fingerprint differs from the
        live catalog's — called by ``BouquetServer.refresh_statistics``
        after its carry-over pass, and by whoever rebuilds statistics or
        changes the data under a store (a scale-up recompiles: see
        ``examples/canned_query_service.py``).  The disk tier is swept
        by name: every ``*.json`` not prefixed by ``current_fingerprint``
        is unlinked, and no envelope is opened.  Returns the number of
        entries removed."""
        tracer = tracer if tracer is not None else self.tracer
        with self._lock:
            dropped = {
                digest
                for digest, (key, _) in self._memory.items()
                if key.statistics_digest != current_fingerprint
            }
            for digest in dropped:
                del self._memory[digest]
        if self.root is not None and os.path.isdir(self.root):
            live = f"{current_fingerprint}-"
            for name in os.listdir(self.root):
                if not name.endswith(".json") or name.startswith(live):
                    continue
                try:
                    os.unlink(os.path.join(self.root, name))
                except OSError:
                    continue
                dropped.add(name[: -len(".json")].rpartition("-")[2])
        removed = len(dropped)
        if removed and tracer.enabled:
            tracer.count("serve.cache.invalidated", removed)
        return removed

    def clear(self) -> None:
        with self._lock:
            self._memory.clear()
        if self.root is not None and os.path.isdir(self.root):
            for name in os.listdir(self.root):
                if name.endswith(".json"):
                    try:
                        os.unlink(os.path.join(self.root, name))
                    except OSError:
                        pass

    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        """Current occupancy of both tiers (for ``repro serve-stats``)."""
        with self._lock:
            memory = len(self._memory)
        disk = 0
        if self.root is not None and os.path.isdir(self.root):
            disk = sum(1 for n in os.listdir(self.root) if n.endswith(".json"))
        return {"memory_entries": memory, "disk_entries": disk}
