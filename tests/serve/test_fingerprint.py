"""Content-hash cache keys: canonicalization, knob participation, and
statistics fingerprint memoization."""

from __future__ import annotations

from dataclasses import replace

from repro.api import BouquetConfig
from repro.query import JoinPredicate, Query, SelectionPredicate, parse_query
from repro.serve.fingerprint import (
    NO_STATISTICS,
    artifact_key,
    canonical_query_text,
    config_fingerprint,
    statistics_fingerprint,
)

SQL = (
    "select * from lineitem, orders, part "
    "where p_partkey = l_partkey and l_orderkey = o_orderkey "
    "and p_retailprice < 1000"
)
SQL2 = (
    "select * from lineitem, orders "
    "where l_orderkey = o_orderkey and o_totalprice < 150000"
)


def _query(schema, name):
    return Query(
        name,
        schema,
        ["lineitem", "orders", "part"],
        selections=[SelectionPredicate("part", "p_retailprice", "<", 1000.0)],
        joins=[
            JoinPredicate("part", "p_partkey", "lineitem", "l_partkey"),
            JoinPredicate("lineitem", "l_orderkey", "orders", "o_orderkey"),
        ],
    )


class TestCanonicalQueryText:
    def test_name_independent(self, schema):
        a = _query(schema, "alpha")
        b = _query(schema, "a completely different name")
        assert canonical_query_text(a) == canonical_query_text(b)

    def test_formatting_independent(self, schema):
        a = parse_query(SQL, schema)
        reformatted = SQL.replace("select *", "SELECT  *").replace(" and ", "  and  ")
        b = parse_query(reformatted, schema)
        assert canonical_query_text(a) == canonical_query_text(b)

    def test_different_structure_differs(self, schema):
        a = parse_query(SQL, schema)
        b = parse_query(SQL2, schema)
        assert canonical_query_text(a) != canonical_query_text(b)

    def test_predicate_order_independent(self, schema):
        """Regression: the canonical text must sort predicates itself
        rather than lean on ``Query.predicate_ids`` happening to return
        them sorted — reordered WHERE clauses share one artifact key."""
        forward = _query(schema, "fwd")
        reversed_ = Query(
            "rev",
            schema,
            ["part", "orders", "lineitem"],
            selections=list(reversed(forward.selections)),
            joins=list(reversed(forward.joins)),
        )
        assert canonical_query_text(forward) == canonical_query_text(reversed_)

    def test_constants_equal_to_six_digits_differ(self, schema):
        """Pids print constants with ``:g``; the canonical text keeps
        them exact, so the two queries never share an artifact."""
        texts = [
            "select * from orders, customer where o_custkey = c_custkey "
            f"and o_totalprice <= {price} and c_nationkey in (3, {nation})"
            for price, nation in (
                ("100087.57967213593", 7),
                ("100087.65967213593", 7),
                ("100087.57967213593", 7.0000001),
            )
        ]
        queries = [parse_query(text, schema) for text in texts]
        assert len({tuple(q.predicate_ids) for q in queries}) == 1
        assert len({canonical_query_text(q) for q in queries}) == 3

    def test_reordered_where_clauses_share_an_artifact_key(
        self, schema, statistics, small_config
    ):
        a = parse_query(SQL, schema)
        reordered = parse_query(
            "select * from part, orders, lineitem "
            "where p_retailprice < 1000 and l_orderkey = o_orderkey "
            "and p_partkey = l_partkey",
            schema,
        )
        assert (
            artifact_key(a, statistics, small_config).digest
            == artifact_key(reordered, statistics, small_config).digest
        )


class TestArtifactKey:
    def test_deterministic(self, schema, statistics, small_config):
        q = parse_query(SQL, schema)
        k1 = artifact_key(q, statistics, small_config)
        k2 = artifact_key(q, statistics, small_config)
        assert k1 == k2
        assert k1.digest == k2.digest

    def test_runtime_knobs_do_not_participate(self, schema, statistics, small_config):
        q = parse_query(SQL, schema)
        base = artifact_key(q, statistics, small_config)
        runtime_variant = small_config.with_(mode="basic", model_error_delta=0.1)
        assert artifact_key(q, statistics, runtime_variant).digest == base.digest

    def test_compile_knobs_participate(self, schema, statistics, small_config):
        q = parse_query(SQL, schema)
        base = artifact_key(q, statistics, small_config)
        for variant in (
            small_config.with_(ratio=3.0),
            small_config.with_(lambda_=0.0),
            small_config.with_(resolution=24),
            small_config.with_(cost_model="commercial"),
        ):
            assert artifact_key(q, statistics, variant).digest != base.digest

    def test_statistics_participate(self, schema, statistics, database, small_config):
        q = parse_query(SQL, schema)
        other = database.build_statistics(sample_size=300, seed=99)
        k1 = artifact_key(q, statistics, small_config)
        k2 = artifact_key(q, other, small_config)
        assert k1.statistics_digest != k2.statistics_digest
        assert k1.digest != k2.digest
        # Same query + config: only the statistics component moved.
        assert k1.query_digest == k2.query_digest
        assert k1.config_digest == k2.config_digest

    def test_no_statistics_is_a_stable_world_view(self, schema, small_config):
        q = parse_query(SQL, schema)
        k = artifact_key(q, None, small_config)
        assert k.statistics_digest == NO_STATISTICS
        assert k.digest == artifact_key(q, None, small_config).digest

    def test_describe_mentions_components(self, schema, statistics, small_config):
        k = artifact_key(parse_query(SQL, schema), statistics, small_config)
        text = k.describe()
        assert k.digest in text
        assert "stats=" in text


class TestStatisticsFingerprint:
    def test_memoized_against_version_token(self, database):
        stats = database.build_statistics(sample_size=300, seed=11)
        fp1 = statistics_fingerprint(stats)
        assert stats._fingerprint_cache == (stats.version_token(), fp1)
        assert statistics_fingerprint(stats) == fp1

    def test_set_column_changes_fingerprint(self, database):
        stats = database.build_statistics(sample_size=300, seed=11)
        fp1 = statistics_fingerprint(stats)
        table = stats.table("part")
        col = table.column("p_retailprice")
        table.set_column("p_retailprice", replace(col, max_value=col.max_value * 2))
        fp2 = statistics_fingerprint(stats)
        assert fp2 != fp1

    def test_set_table_with_same_content_keeps_fingerprint(self, database):
        # Re-registering a table bumps the version token (forcing a
        # recompute) but the *content* hash must stay identical.
        stats = database.build_statistics(sample_size=300, seed=11)
        fp1 = statistics_fingerprint(stats)
        token1 = stats.version_token()
        stats.set_table(stats.table("part"))
        assert stats.version_token() != token1
        assert statistics_fingerprint(stats) == fp1


def test_config_fingerprint_covers_exactly_the_compile_knobs():
    config = BouquetConfig()
    assert set(config.compile_knobs()) == {"ratio", "lambda", "resolution", "cost_model"}
    assert config_fingerprint(config) == config_fingerprint(config.with_(mode="basic"))
    assert config_fingerprint(config) != config_fingerprint(config.with_(ratio=2.5))
