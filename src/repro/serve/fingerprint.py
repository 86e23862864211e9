"""Content-hash cache keys for compiled-bouquet artifacts.

A compiled bouquet is a pure function of three inputs, so the cache key
is a digest over exactly those three:

* the **canonical query text** — a normalized rendering of the query's
  structure (sorted tables, sorted predicate pids, group-by, aggregate
  flag) so formatting, clause order, and the arbitrary query *name* do
  not fragment the cache;
* the **statistics fingerprint** — a digest of every table/column
  statistic the optimizer can observe (row counts, min/max, distincts,
  histogram bounds, MCVs).  Regenerated or refreshed statistics change
  the digest, which both routes lookups to a new key and lets the store
  garbage-collect entries built against the old world view;
* the **compile knobs** — the subset of :class:`repro.api.BouquetConfig`
  that determines the artifact (r, λ, resolution, cost model); runtime
  knobs (mode, δ, equivalence threshold) deliberately do not participate.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

from ..catalog.statistics import DatabaseStatistics
from ..query.query import Query

__all__ = [
    "ArtifactKey",
    "artifact_key",
    "canonical_query_text",
    "config_fingerprint",
    "statistics_fingerprint",
]

#: Statistics fingerprint used when the catalog carries no statistics at
#: all (the magic-number/ETL scenario) — still a valid, stable world view.
NO_STATISTICS = "nostats"


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def canonical_query_text(query: Query) -> str:
    """Name-independent canonical rendering of a query's structure.

    Every component is explicitly sorted — tables, predicate pids, and
    group-by columns — so two queries that differ only in FROM/WHERE
    clause order render identically and share an artifact key.
    (``Query.predicate_ids`` happens to return pids sorted today, but
    the cache key must not depend on that implementation detail.)  A pid
    prints its constant to six significant digits, so each selection's
    exact constants follow, as ``repr(float)``: two queries whose
    constants agree only in a pid never share an artifact.
    """
    constants = sorted(
        (sel.pid, sel.value if sel.op == "in" else (sel.value,))
        for sel in query.selections
    )
    parts = [
        "from=" + ",".join(sorted(query.tables)),
        "preds=" + ";".join(sorted(query.predicate_ids)),
        "group=" + ",".join(f"{t}.{c}" for t, c in sorted(query.group_by)),
        "agg=" + ("1" if query.aggregate else "0"),
        "consts="
        + ";".join(
            pid + "=" + ",".join(repr(float(v)) for v in values)
            for pid, values in constants
        ),
    ]
    return "|".join(parts)


def statistics_fingerprint(statistics: Optional[DatabaseStatistics]) -> str:
    """Digest of everything the optimizer can see in the statistics.

    Memoized per statistics object against its
    :meth:`~repro.catalog.statistics.DatabaseStatistics.version_token`,
    so a warm lookup is one version comparison instead of a full
    serialization; replacing a table/column through the setters bumps
    the version and forces a recomputation.
    """
    if statistics is None:
        return NO_STATISTICS
    token = statistics.version_token()
    cached = getattr(statistics, "_fingerprint_cache", None)
    if cached is not None and cached[0] == token:
        return cached[1]
    view = {}
    for table_name in statistics.table_names:
        table = statistics.table(table_name)
        columns = {}
        for column_name in table.column_names:
            col = table.column(column_name)
            columns[column_name] = [
                col.min_value,
                col.max_value,
                col.n_distinct,
                col.null_fraction,
                col.histogram_bounds,
                col.mcv_values,
                col.mcv_fractions,
            ]
        view[table_name] = {"rows": table.row_count, "columns": columns}
    fingerprint = _digest(json.dumps(view, sort_keys=True))
    statistics._fingerprint_cache = (token, fingerprint)
    return fingerprint


@lru_cache(maxsize=64)
def config_fingerprint(config) -> str:
    """Digest of the compile knobs (``config.compile_knobs()``), kept per
    config: a ``BouquetConfig`` is frozen and hashable, and a server
    derives one key per request from the same one."""
    return _digest(json.dumps(config.compile_knobs(), sort_keys=True))


@dataclass(frozen=True)
class ArtifactKey:
    """The full cache key, with its three component digests kept visible
    so invalidation can match on the statistics part alone."""

    query_text: str
    query_digest: str
    statistics_digest: str
    config_digest: str

    @cached_property
    def digest(self) -> str:
        """The combined content hash — the on-disk artifact name; hashed
        once per key."""
        return _digest(
            "|".join((self.query_digest, self.statistics_digest, self.config_digest))
        )

    def describe(self) -> str:
        return (
            f"{self.digest} (query={self.query_digest[:8]} "
            f"stats={self.statistics_digest[:8]} config={self.config_digest[:8]})"
        )


def artifact_key(
    query: Query,
    statistics: Optional[DatabaseStatistics],
    config,
) -> ArtifactKey:
    """Build the content-hash key for one (query, statistics, config)."""
    text = canonical_query_text(query)
    return ArtifactKey(
        query_text=text,
        query_digest=_digest(text),
        statistics_digest=statistics_fingerprint(statistics),
        config_digest=config_fingerprint(config),
    )
