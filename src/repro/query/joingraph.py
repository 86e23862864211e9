"""Join-graph construction and geometry classification.

The paper's Table 2 classifies workload queries by join-graph geometry
(chain, star, branch) and relation count; this module provides that
classification plus the connectivity checks the optimizer's join
enumeration relies on.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from ..exceptions import QueryError
from .predicates import JoinPredicate


class JoinGraph:
    """Undirected graph over the query's tables, edges = join predicates."""

    def __init__(self, tables: Sequence[str], joins: Sequence[JoinPredicate]):
        self.tables: Tuple[str, ...] = tuple(tables)
        self.joins: Tuple[JoinPredicate, ...] = tuple(joins)
        table_set = set(self.tables)
        self._adjacency: Dict[str, Set[str]] = {t: set() for t in self.tables}
        self._edges: Dict[FrozenSet[str], List[JoinPredicate]] = defaultdict(list)
        for join in self.joins:
            left, right = join.tables
            if left not in table_set or right not in table_set:
                raise QueryError(
                    f"join {join} references a table outside the query"
                )
            self._adjacency[left].add(right)
            self._adjacency[right].add(left)
            self._edges[frozenset((left, right))].append(join)

    def neighbors(self, table: str) -> Set[str]:
        return set(self._adjacency[table])

    def degree(self, table: str) -> int:
        return len(self._adjacency[table])

    def joins_connecting(
        self, group_a: Iterable[str], group_b: Iterable[str]
    ) -> List[JoinPredicate]:
        """All join predicates with one side in each group."""
        set_a, set_b = set(group_a), set(group_b)
        result = []
        for join in self.joins:
            left, right = join.tables
            if (left in set_a and right in set_b) or (left in set_b and right in set_a):
                result.append(join)
        return result

    def is_connected(self, subset: Iterable[str] = None) -> bool:
        """True if the induced subgraph on ``subset`` (default: all) is connected."""
        nodes = set(self.tables) if subset is None else set(subset)
        if not nodes:
            return False
        start = next(iter(nodes))
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbor in self._adjacency[current]:
                if neighbor in nodes and neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return seen == nodes

    def has_cycle(self) -> bool:
        """True if the join graph (as a simple graph) contains a cycle."""
        simple_edges = len(self._edges)
        if not self.is_connected():
            # Count per component: a forest has edges = nodes - components.
            components = self._component_count()
            return simple_edges > len(self.tables) - components
        return simple_edges > len(self.tables) - 1

    def _component_count(self) -> int:
        remaining = set(self.tables)
        count = 0
        while remaining:
            count += 1
            start = next(iter(remaining))
            stack = [start]
            remaining.discard(start)
            while stack:
                node = stack.pop()
                for neighbor in self._adjacency[node]:
                    if neighbor in remaining:
                        remaining.discard(neighbor)
                        stack.append(neighbor)
        return count

    def geometry(self) -> str:
        """Classify the join graph: chain, star, branch, cycle, or single.

        * ``single`` — one relation, no joins.
        * ``chain``  — a simple path.
        * ``star``   — one hub joined to all other (degree-1) relations.
        * ``branch`` — any other tree (a tree with an internal branching node).
        * ``cycle``  — contains a cycle.
        """
        if len(self.tables) == 1:
            return "single"
        if not self.is_connected():
            raise QueryError("join graph is disconnected")
        if self.has_cycle():
            return "cycle"
        degrees = sorted(self.degree(t) for t in self.tables)
        if degrees[-1] <= 2:
            return "chain"
        hub_count = sum(1 for d in degrees if d > 1)
        if hub_count == 1:
            return "star"
        return "branch"

    def describe(self) -> str:
        """Human-readable geometry string, e.g. ``chain(6)``."""
        return f"{self.geometry()}({len(self.tables)})"
