"""Tests for incremental bouquet maintenance under scale-up (§8)."""

import pytest

from repro.catalog import tpch_generator_spec, tpch_schema
from repro.core.maintenance import refresh_bouquet
from repro.datagen import Database
from repro.ess import ErrorDimension, SelectivitySpace
from repro.exceptions import BouquetError
from repro.optimizer import Optimizer, actual_selectivities
from repro.query import parse_query

EQ_SQL = (
    "select * from lineitem, orders, part "
    "where p_partkey = l_partkey and l_orderkey = o_orderkey "
    "and p_retailprice < 1000"
)


@pytest.fixture(scope="module")
def scaled_world():
    """A 3x larger database with its own optimizer and base assignment."""
    schema = tpch_schema(0.009)
    database = Database.generate(schema, tpch_generator_spec(0.009), seed=7)
    stats = database.build_statistics(sample_size=1500, seed=3)
    optimizer = Optimizer(schema, stats)
    query = parse_query(EQ_SQL, schema, name="EQ")
    base = actual_selectivities(query, database)
    return optimizer, query, base


def _same_shape_space(eq_bouquet, query, base):
    """The old ESS (dimensions and grid) over the grown database's base
    assignment — what the refresh patches onto."""
    old_space = eq_bouquet.space
    return SelectivitySpace(
        query, old_space.dimensions, list(old_space.shape), base
    )


class TestRefresh:
    def test_refresh_produces_valid_bouquet(self, eq_bouquet, scaled_world):
        optimizer, query, base = scaled_world
        new_space = _same_shape_space(eq_bouquet, query, base)
        result = refresh_bouquet(eq_bouquet, optimizer, new_space)
        bouquet = result.bouquet
        assert bouquet.contours
        assert bouquet.cardinality >= 1
        # Scale-up raises the cost ceiling.
        assert bouquet.diagram.cmax > eq_bouquet.diagram.cmax

    def test_refresh_cheaper_than_exhaustive_rebuild(self, eq_bouquet, scaled_world):
        optimizer, query, base = scaled_world
        new_space = _same_shape_space(eq_bouquet, query, base)
        result = refresh_bouquet(eq_bouquet, optimizer, new_space)
        assert result.optimizer_calls < new_space.size

    def test_refreshed_bouquet_completes_and_respects_bound(
        self, eq_bouquet, scaled_world
    ):
        from repro.core import simulate_at

        optimizer, query, base = scaled_world
        new_space = _same_shape_space(eq_bouquet, query, base)
        bouquet = refresh_bouquet(eq_bouquet, optimizer, new_space).bouquet
        for loc in [(0,), (24,), (63,)]:
            run = simulate_at(bouquet, loc, mode="basic")
            assert run.completed
            assert run.total_cost <= bouquet.mso_bound * bouquet.diagram.cost_at(
                loc
            ) * (1 + 1e-6)

    def test_reused_plans_counted(self, eq_bouquet, scaled_world):
        optimizer, query, base = scaled_world
        new_space = _same_shape_space(eq_bouquet, query, base)
        result = refresh_bouquet(eq_bouquet, optimizer, new_space)
        assert result.strategy == "delta"
        assert 0 < result.reused_plan_count <= eq_bouquet.cardinality
        assert (
            result.reused_plan_count + result.new_plan_count
            == result.bouquet.cardinality
        )

    def test_dimension_mismatch_rejected(self, eq_bouquet, scaled_world):
        optimizer, query, base = scaled_world
        wrong = [ErrorDimension(query.joins[0].pid, 1e-6, 1e-4, "wrong")]
        base_full = dict(base)
        new_space = SelectivitySpace(query, wrong, 8, base_full)
        with pytest.raises(BouquetError):
            refresh_bouquet(eq_bouquet, optimizer, new_space)
