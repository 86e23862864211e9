"""Rebinding compiled bouquets: a rebind is a fresh compile or refuses,
across random wlgen instances, and the loud fallback paths."""

from __future__ import annotations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.api import Catalog, compile_bouquet
from repro.drift import bouquets_equal, perturb_statistics
from repro.exceptions import BouquetError, TemplateError
from repro.obs import MemorySink, Tracer
from repro.query import Query, SelectionPredicate
from repro.template import rebind_compiled, template_signature
from repro.wlgen import GeneratorConfig, QueryGenerator
from tests.conftest import optimizer_calls

INDICES = st.integers(min_value=0, max_value=40)
BINDINGS = st.integers(min_value=1, max_value=5)


@pytest.fixture(scope="module")
def default_generator(schema, database):
    """The default mix, where non-dimension constants move between
    bindings: the rebinds that must refuse, not just the identity ones."""
    return QueryGenerator(schema, database, GeneratorConfig())


class TestRebindEquivalence:
    @given(index=INDICES, binding=BINDINGS)
    @settings(max_examples=8, deadline=None)
    def test_rebind_matches_fresh_compile_bit_for_bit(
        self, catalog, templated_generator, small_config, index, binding
    ):
        exemplar = templated_generator.instantiate(7, index, 0).query
        instance = templated_generator.instantiate(7, index, binding).query
        assume(len(exemplar.selections) >= 1)

        compiled = compile_bouquet(exemplar, catalog, config=small_config)
        sig = template_signature(
            exemplar, catalog.schema, catalog.statistics
        )
        outcome = rebind_compiled(compiled, sig, instance, catalog)
        reference = compile_bouquet(instance, catalog, config=small_config)
        assert bouquets_equal(outcome.compiled.bouquet, reference.bouquet) == []

    @given(index=INDICES, binding=BINDINGS)
    @example(index=2, binding=3)
    @example(index=10, binding=1)
    @example(index=16, binding=1)
    @settings(max_examples=8, deadline=None)
    def test_rebind_is_a_fresh_compile_or_refuses(
        self, catalog, default_generator, small_config, index, binding
    ):
        """Property: whatever constants moved, a rebind either raises
        :class:`TemplateError` or is bit-identical to compiling the
        instance.  The pinned examples are rebinds a re-plan of suspect
        locations once got wrong (index 16 / binding 1 kept a plan 14.4%
        costlier than the compile's at some location)."""
        exemplar = default_generator.instantiate(7, index, 0).query
        instance = default_generator.instantiate(7, index, binding).query
        try:
            compiled = compile_bouquet(exemplar, catalog, config=small_config)
        except BouquetError:
            assume(False)  # no error dimensions: nothing to rebind
        sig = template_signature(exemplar, catalog.schema, catalog.statistics)
        try:
            outcome = rebind_compiled(compiled, sig, instance, catalog)
        except TemplateError:
            return
        reference = compile_bouquet(instance, catalog, config=small_config)
        assert bouquets_equal(outcome.compiled.bouquet, reference.bouquet) == []

    @given(index=INDICES, binding=BINDINGS)
    @settings(max_examples=6, deadline=None)
    def test_range_only_instances_rebind_without_optimizer_work(
        self, catalog, templated_generator, small_config, index, binding
    ):
        """Constants moving only on error-dimension pids take the
        identity path: zero ESS locations planned."""
        exemplar = templated_generator.instantiate(7, index, 0).query
        instance = templated_generator.instantiate(7, index, binding).query
        assume(len(exemplar.selections) >= 1)

        compiled = compile_bouquet(exemplar, catalog, config=small_config)
        sig = template_signature(exemplar, catalog.schema, catalog.statistics)
        tracer = Tracer(MemorySink())
        outcome = rebind_compiled(compiled, sig, instance, catalog, tracer=tracer)
        assert optimizer_calls(tracer) == 0
        assert outcome.compiled.query is instance


@pytest.fixture
def etl_template(schema, statistics, templated_generator, small_config):
    """A template compiled in the ETL regime (statistics, no database):
    the base assignment is *estimated*, so statistics drift genuinely
    moves the rebind's compile inputs."""
    catalog = Catalog(schema, statistics=statistics)
    exemplar = templated_generator.instantiate(7, 0, 0).query
    instance = templated_generator.instantiate(7, 0, 1).query
    compiled = compile_bouquet(exemplar, catalog, config=small_config)
    sig = template_signature(exemplar, schema, statistics)
    return catalog, compiled, sig, instance


class TestFallbackPaths:
    def test_drifted_statistics_force_divergence(
        self, schema, statistics, etl_template
    ):
        """Under drifted statistics a non-dimension base selectivity of
        the instance moves away from the template's, so the rebind
        refuses with ``"base-moved"`` — before any optimizer call — and
        the caller compiles."""
        _, compiled, sig, instance = etl_template
        drifted = perturb_statistics(
            statistics, "part", "p_partkey", distinct_scale=0.02
        )
        tracer = Tracer(MemorySink())
        with pytest.raises(TemplateError) as excinfo:
            rebind_compiled(
                compiled,
                sig,
                instance,
                Catalog(schema, statistics=drifted),
                tracer=tracer,
            )
        assert excinfo.value.reason == "base-moved"
        assert optimizer_calls(tracer) == 0

    def test_base_moved_rebind_builds_no_plan(
        self, schema, statistics, etl_template, monkeypatch
    ):
        """The refusal reads only the spaces: a ``"base-moved"`` rebind
        remaps no plan and registers none."""
        from repro.optimizer.optimizer import PlanRegistry
        from repro.template import rebind

        _, compiled, sig, instance = etl_template
        drifted = perturb_statistics(
            statistics, "part", "p_partkey", distinct_scale=0.02
        )
        built = []
        remap, register = rebind.remap_plan, PlanRegistry.register
        monkeypatch.setattr(
            rebind, "remap_plan", lambda *a: built.append("remap") or remap(*a)
        )
        monkeypatch.setattr(
            PlanRegistry, "register", lambda *a: built.append("register") or register(*a)
        )
        with pytest.raises(TemplateError) as excinfo:
            rebind_compiled(compiled, sig, instance, Catalog(schema, statistics=drifted))
        assert excinfo.value.reason == "base-moved"
        assert built == []

    def test_non_instance_query_is_rejected(
        self, catalog, schema, templated_generator, small_config
    ):
        exemplar = templated_generator.instantiate(7, 0, 0).query
        compiled = compile_bouquet(exemplar, catalog, config=small_config)
        sig = template_signature(exemplar, catalog.schema, catalog.statistics)
        other = Query(
            "other-shape",
            schema,
            ["part"],
            selections=[SelectionPredicate("part", "p_retailprice", "<", 500.0)],
        )
        with pytest.raises(TemplateError) as excinfo:
            rebind_compiled(compiled, sig, other, catalog)
        assert excinfo.value.reason == "template-mismatch"
