"""Property tests for the seeded random-query generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizer import actual_selectivities
from repro.query.sql import parse_query
from repro.wlgen import GeneratorConfig, QueryGenerator
from repro.wlgen.generator import GeneratorError

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)
INDICES = st.integers(min_value=0, max_value=500)


@pytest.fixture(scope="module")
def generator(schema, database):
    return QueryGenerator(schema, database)


class TestGeneratedStructure:
    @given(seed=SEEDS, index=INDICES)
    @settings(max_examples=60, deadline=None)
    def test_join_graph_is_acyclic(self, generator, seed, index):
        query = generator.generate(seed, index).query
        assert not query.join_graph.has_cycle()

    @given(seed=SEEDS, index=INDICES)
    @settings(max_examples=60, deadline=None)
    def test_references_only_catalog_objects(self, generator, schema, seed, index):
        query = generator.generate(seed, index).query
        for table in query.tables:
            assert table in schema.table_names
        for sel in query.selections:
            assert sel.table in query.tables
            assert schema.table(sel.table).has_column(sel.column)
        for join in query.joins:
            for side in join.tables:
                assert side in query.tables
        for table, column in query.group_by:
            assert schema.table(table).has_column(column)

    @given(seed=SEEDS, index=INDICES)
    @settings(max_examples=40, deadline=None)
    def test_joins_follow_declared_foreign_keys(self, generator, schema, seed, index):
        query = generator.generate(seed, index).query
        fks = {
            (fk.child_table, fk.child_column, fk.parent_table, fk.parent_column)
            for fk in schema.foreign_keys
        }
        for join in query.joins:
            forward = (join.left_table, join.left_column,
                       join.right_table, join.right_column)
            backward = (join.right_table, join.right_column,
                        join.left_table, join.left_column)
            assert forward in fks or backward in fks

    @given(seed=SEEDS, index=INDICES)
    @settings(max_examples=30, deadline=None)
    def test_sql_parses_back(self, generator, schema, seed, index):
        generated = generator.generate(seed, index)
        reparsed = parse_query(generated.sql, schema)
        assert reparsed.predicate_ids == generated.query.predicate_ids


class TestDeterminism:
    @given(seed=SEEDS, index=INDICES)
    @settings(max_examples=30, deadline=None)
    def test_same_coordinates_same_query(self, schema, database, seed, index):
        a = QueryGenerator(schema, database).generate(seed, index)
        b = QueryGenerator(schema, database).generate(seed, index)
        assert a.sql == b.sql
        assert a.query.predicate_ids == b.query.predicate_ids

    def test_stream_is_prefix_stable(self, generator):
        first = [g.sql for g in generator.generate_many(9, 10)]
        second = [g.sql for g in generator.generate_many(9, 5)]
        assert first[:5] == second

    def test_different_seeds_differ(self, generator):
        # Not a tautology, but astronomically unlikely to collide across
        # ten draws if the seed actually enters the stream.
        a = [g.sql for g in generator.generate_many(1, 10)]
        b = [g.sql for g in generator.generate_many(2, 10)]
        assert a != b


class TestExecutability:
    @given(index=st.integers(min_value=0, max_value=60))
    @settings(max_examples=15, deadline=None)
    def test_executes_on_generated_database(
        self, generator, optimizer, database, index
    ):
        """Every generated query optimizes and runs on the datagen DB."""
        from repro.executor import ExecutionEngine

        query = generator.generate(1234, index).query
        truth = actual_selectivities(query, database)
        plan = optimizer.optimize(query, assignment=truth).plan
        result = ExecutionEngine(database).execute(query, plan)
        assert result.completed
        assert result.rows >= 0

    @given(index=st.integers(min_value=0, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_selectivities_are_valid(self, generator, database, index):
        query = generator.generate(77, index).query
        truth = actual_selectivities(query, database)
        assert set(truth) == set(query.predicate_ids)
        for value in truth.values():
            assert 0.0 < value <= 1.0


class TestConfigValidation:
    def test_bad_join_bounds_rejected(self):
        with pytest.raises(GeneratorError):
            GeneratorConfig(min_joins=3, max_joins=1)

    def test_bad_weights_rejected(self):
        with pytest.raises(GeneratorError):
            GeneratorConfig(equality_weight=0.0, range_weight=0.0, in_weight=0.0)

    def test_round_trips_through_dict(self):
        config = GeneratorConfig(max_joins=6, in_weight=0.5)
        assert GeneratorConfig.from_dict(config.to_dict()) == config

    def test_join_budget_respected(self, schema, database):
        generator = QueryGenerator(
            schema, database, GeneratorConfig(min_joins=2, max_joins=3)
        )
        for index in range(20):
            query = generator.generate(3, index).query
            assert 2 <= len(query.joins) <= 3


class TestTemplateInstancing:
    @pytest.fixture(scope="class")
    def templated(self, templated_generator):
        return templated_generator

    def test_binding_zero_is_the_exemplar(self, templated):
        a = templated.generate(11, 3).query
        b = templated.instantiate(11, 3, 0).query
        assert a.name == b.name
        assert a.fingerprint == b.fingerprint

    @given(index=st.integers(min_value=0, max_value=60),
           binding=st.integers(min_value=1, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_bindings_preserve_structure(self, templated, index, binding):
        exemplar = templated.instantiate(11, index, 0).query
        instance = templated.instantiate(11, index, binding).query
        assert instance.tables == exemplar.tables
        assert instance.joins == exemplar.joins
        assert instance.group_by == exemplar.group_by
        assert instance.aggregate == exemplar.aggregate
        assert [(s.table, s.column, s.op) for s in instance.selections] == [
            (s.table, s.column, s.op) for s in exemplar.selections
        ]

    @given(index=st.integers(min_value=0, max_value=60),
           binding=st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_bindings_share_a_template_signature(self, templated, index, binding):
        from repro.template import template_signature

        exemplar = templated.instantiate(11, index, 0).query
        instance = templated.instantiate(11, index, binding).query
        assert (
            template_signature(exemplar).digest
            == template_signature(instance).digest
        )

    def test_instancing_is_deterministic(self, templated):
        a = templated.instantiate(11, 2, 5).query
        b = templated.instantiate(11, 2, 5).query
        assert a.fingerprint == b.fingerprint

    def test_exemplar_is_named_before_its_bindings(self, templated):
        assert templated.instantiate(11, 2, 0).query.name == "W11_2"
        assert templated.instantiate(11, 2, 1).query.name == "W11_2b1"

    def test_negative_binding_rejected(self, templated):
        with pytest.raises(GeneratorError):
            templated.instantiate(11, 2, -1)
