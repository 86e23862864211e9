"""The search space of System-R style dynamic-programming join enumeration.

DPsize over connected subgraphs of the query's join graph (no cross
products); the DP that keeps every subset's cheapest plan is
:mod:`repro.batchopt`.  Physical alternatives considered at each join
are hash (both build sides), sort merge, materialized nested loops, and
index nested loops when the inner side is a single base table with an
index on its join column.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Tuple

from ..catalog.schema import Schema
from ..exceptions import OptimizerError
from ..query.query import Query
from .cost_model import CostModel
from .plans import (
    IndexLookup,
    IndexScan,
    Join,
    PlanNode,
    SeqScan,
)


def access_paths(query: Query, table: str) -> List[PlanNode]:
    """Candidate access paths for one base table.

    Always a sequential scan; plus, for every selection predicate on an
    indexed column, an index scan driven by that predicate with the
    remaining selections as residual filters.
    """
    selections = query.selections_on(table)
    all_pids = tuple(sel.pid for sel in selections)
    paths: List[PlanNode] = [SeqScan(table, all_pids)]
    for sel in selections:
        if sel.indexable and query.schema.has_index(table, sel.column):
            residuals = tuple(pid for pid in all_pids if pid != sel.pid)
            paths.append(IndexScan(table, sel.pid, residuals))
    return paths


def _index_lookup_inner(query: Query, table: str, join_column: str) -> IndexLookup:
    """INL inner side: index lookup on the join column, residual filters."""
    residuals = tuple(sel.pid for sel in query.selections_on(table))
    return IndexLookup(table, join_column, residuals)


class JoinEnumerator:
    """The static structure of one query's DP join-order search.

    Built once per query: the access paths, the connected subsets and
    their splits, and the physical join candidates of a split.  The DP
    itself (:mod:`repro.batchopt`) walks it once per slab of selectivity
    assignments (plan choice depends on the selectivities, which is the
    whole point of POSP generation).
    """

    def __init__(self, query: Query, schema: Schema):
        if not query.tables:
            raise OptimizerError("query has no tables")
        self.query = query
        self.schema = schema
        #: Base tables in the canonical (sorted) enumeration order.
        self.tables: Tuple[str, ...] = tuple(sorted(query.tables))
        self._access_paths: Dict[str, List[PlanNode]] = {
            table: access_paths(query, table) for table in self.tables
        }
        #: Connected subset -> its (left, right, join_pids) splits.
        self.partitions = self._connected_partitions()
        #: Connected subsets of two or more tables, smallest first: the
        #: DP's visiting order.
        self.subsets: List[FrozenSet[str]] = sorted(self.partitions, key=len)

    def access_path_candidates(self, table: str) -> List[PlanNode]:
        """Access-path candidates for one base table, in DP order."""
        return self._access_paths[table]

    def _connected_subsets(self) -> List[FrozenSet[str]]:
        graph = self.query.join_graph
        subsets = []
        for size in range(1, len(self.tables) + 1):
            for combo in combinations(self.tables, size):
                subset = frozenset(combo)
                if size == 1 or graph.is_connected(subset):
                    subsets.append(subset)
        return subsets

    def _connected_partitions(
        self,
    ) -> Dict[FrozenSet[str], List[Tuple[FrozenSet[str], FrozenSet[str], Tuple[str, ...]]]]:
        """For each connected subset, all (left, right, join_pids) splits.

        Both halves must be connected and joined by at least one predicate.
        Each unordered split appears once; the DP tries both orientations.
        """
        graph = self.query.join_graph
        connected = set(self._connected_subsets())
        partitions: Dict[
            FrozenSet[str], List[Tuple[FrozenSet[str], FrozenSet[str], Tuple[str, ...]]]
        ] = {}
        for subset in connected:
            if len(subset) < 2:
                continue
            ordered = sorted(subset)
            splits = []
            seen = set()
            # Enumerate proper non-empty subsets; fix the first element to
            # the left side to halve the work.
            rest = ordered[1:]
            first = ordered[0]
            for size in range(0, len(rest) + 1):
                for combo in combinations(rest, size):
                    left = frozenset((first,) + combo)
                    right = subset - left
                    if not right:
                        continue
                    if left not in connected or right not in connected:
                        continue
                    joins = graph.joins_connecting(left, right)
                    if not joins:
                        continue
                    key = (left, right)
                    if key in seen:
                        continue
                    seen.add(key)
                    pids = tuple(sorted(j.pid for j in joins))
                    splits.append((left, right, pids))
            partitions[subset] = splits
        return partitions

    def join_candidates(
        self,
        left_plan: PlanNode,
        right_plan: PlanNode,
        left_set: FrozenSet[str],
        right_set: FrozenSet[str],
        join_pids: Tuple[str, ...],
        cost_model: CostModel,
    ) -> List[PlanNode]:
        """Physical join alternatives for one (left, right) split.

        The candidate *order* is part of the optimizer's contract: the DP
        resolves cost ties by keeping the first candidate seen.
        """
        plans: List[PlanNode] = [
            Join("hash", left_plan, right_plan, join_pids),
            Join("hash", right_plan, left_plan, join_pids),
        ]
        if cost_model.enable_mergejoin:
            plans.append(Join("merge", left_plan, right_plan, join_pids))
        if cost_model.enable_nestloop:
            plans.append(Join("nl", left_plan, right_plan, join_pids))
            plans.append(Join("nl", right_plan, left_plan, join_pids))
        # Index nested loops: inner must be a lone base table with an index
        # on its join column, and a single join predicate drives the lookup.
        if len(join_pids) == 1:
            join = self.query.predicate(join_pids[0])
            for outer_plan, outer_set, inner_set in (
                (left_plan, left_set, right_set),
                (right_plan, right_set, left_set),
            ):
                if len(inner_set) != 1:
                    continue
                (inner_table,) = inner_set
                column = join.column_for(inner_table)
                if not self.schema.has_index(inner_table, column):
                    continue
                inner = _index_lookup_inner(self.query, inner_table, column)
                plans.append(Join("inl", outer_plan, inner, join_pids))
        return plans
