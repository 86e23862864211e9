"""Unit tests for join-graph geometry classification."""

import pytest

from repro.exceptions import QueryError
from repro.query import JoinPredicate
from repro.query.joingraph import JoinGraph


def jp(a, b):
    return JoinPredicate(a, f"{a}_k", b, f"{b}_k")


def chain(names):
    return JoinGraph(names, [jp(x, y) for x, y in zip(names, names[1:])])


class TestConnectivity:
    def test_chain_is_connected(self):
        graph = chain(["a", "b", "c", "d"])
        assert graph.is_connected()
        assert graph.is_connected({"b", "c"})
        assert not graph.is_connected({"a", "c"})  # b missing

    def test_disconnected(self):
        graph = JoinGraph(["a", "b", "c"], [jp("a", "b")])
        assert not graph.is_connected()

    def test_joins_connecting(self):
        graph = chain(["a", "b", "c"])
        joining = graph.joins_connecting({"a"}, {"b", "c"})
        assert len(joining) == 1 and set(joining[0].tables) == {"a", "b"}


class TestGeometry:
    def test_single(self):
        assert JoinGraph(["a"], []).geometry() == "single"

    def test_chain(self):
        assert chain(["a", "b", "c", "d", "e", "f"]).describe() == "chain(6)"
        assert chain(["a", "b"]).geometry() == "chain"

    def test_star(self):
        graph = JoinGraph(
            ["hub", "a", "b", "c"], [jp("hub", x) for x in ("a", "b", "c")]
        )
        assert graph.describe() == "star(4)"

    def test_branch(self):
        # Two internal nodes of degree >= 2: a tree that is neither a
        # chain nor a star.
        edges = [jp("a", "b"), jp("b", "c"), jp("b", "d"), jp("d", "e"), jp("d", "f")]
        graph = JoinGraph(["a", "b", "c", "d", "e", "f"], edges)
        assert graph.describe() == "branch(6)"

    def test_cycle(self):
        edges = [jp("a", "b"), jp("b", "c"), jp("a", "c")]
        graph = JoinGraph(["a", "b", "c"], edges)
        assert graph.geometry() == "cycle"
        assert graph.has_cycle()

    def test_disconnected_geometry_rejected(self):
        graph = JoinGraph(["a", "b", "c"], [jp("a", "b")])
        with pytest.raises(QueryError):
            graph.geometry()

    def test_join_outside_tables_rejected(self):
        with pytest.raises(QueryError):
            JoinGraph(["a", "b"], [jp("a", "z")])


class TestDegreesAndEdges:
    def test_degrees(self):
        graph = chain(["a", "b", "c"])
        assert graph.degree("a") == 1
        assert graph.degree("b") == 2
        assert graph.neighbors("b") == {"a", "c"}

    def test_multi_edges_between_pair(self):
        edges = [
            JoinPredicate("a", "x1", "b", "y1"),
            JoinPredicate("a", "x2", "b", "y2"),
        ]
        graph = JoinGraph(["a", "b"], edges)
        assert len(graph.joins_connecting(["a"], ["b"])) == 2
        # Parallel edges do not make a simple-graph cycle.
        assert not graph.has_cycle()
