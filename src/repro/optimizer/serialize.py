"""Plan (de)serialization as one shared node table.

Plans are structural objects, so they round-trip through plain lists /
JSON.  Used to persist compiled bouquets for the paper's "canned query"
scenario (§4.2), where the expensive compile-time phase is run offline
and reused across invocations.

A set of plans is written as one table: each distinct sub-plan (by
:meth:`~repro.optimizer.plans.PlanNode.canonical_signature`) is one
row, in post-order, and names its children by row index.  A sub-tree
that many POSP plans share is therefore written once, and decoding
builds it once, so it comes back as one shared object.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..exceptions import OptimizerError
from .plans import Aggregate, IndexLookup, IndexScan, Join, PlanNode, SeqScan


def plans_to_table(plans: Sequence[PlanNode]) -> Tuple[List[list], List[int]]:
    """``(rows, roots)``: one row per distinct sub-plan of ``plans`` in
    post-order, and the row of each plan's root."""
    rows: List[list] = []
    row_of: Dict[str, int] = {}

    def add(node: PlanNode) -> int:
        signature = node.canonical_signature()
        at = row_of.get(signature)
        if at is None:
            children = [add(child) for child in node.children]
            rows.append(_row(node, children))
            at = row_of[signature] = len(rows) - 1
        return at

    return rows, [add(plan) for plan in plans]


def _row(node: PlanNode, children: List[int]) -> list:
    if isinstance(node, SeqScan):
        return ["seq_scan", node.table, list(node.filter_pids)]
    if isinstance(node, IndexScan):
        return ["index_scan", node.table, node.index_pid, list(node.filter_pids)]
    if isinstance(node, IndexLookup):
        return ["index_lookup", node.table, node.lookup_column, list(node.filter_pids)]
    if isinstance(node, Join):
        return ["join", node.algo, list(node.join_pids)] + children
    if isinstance(node, Aggregate):
        return ["aggregate", [list(gc) for gc in node.group_columns]] + children
    raise OptimizerError(f"cannot serialize node {node.signature()}")


def plans_from_table(rows: Sequence[list], roots: Sequence[int]) -> List[PlanNode]:
    """Rebuild the plans of :func:`plans_to_table` output.  A row may
    only name earlier rows, so each is built once, after its children."""
    built: List[PlanNode] = []

    def at(ref) -> PlanNode:
        if type(ref) is not int or not 0 <= ref < len(built):
            raise OptimizerError(f"plan table names row {ref!r}, not an earlier row")
        return built[ref]

    for row in rows:
        try:
            kind, *fields = row
            if kind == "seq_scan":
                table, filters = fields
                built.append(SeqScan(table, tuple(filters)))
            elif kind == "index_scan":
                table, index_pid, filters = fields
                built.append(IndexScan(table, index_pid, tuple(filters)))
            elif kind == "index_lookup":
                table, column, filters = fields
                built.append(IndexLookup(table, column, tuple(filters)))
            elif kind == "join":
                algo, join_pids, left, right = fields
                built.append(Join(algo, at(left), at(right), tuple(join_pids)))
            elif kind == "aggregate":
                groups, child = fields
                built.append(Aggregate(at(child), tuple(tuple(g) for g in groups)))
            else:
                raise OptimizerError(f"unknown serialized node kind {kind!r}")
        except (TypeError, ValueError) as exc:
            raise OptimizerError(f"malformed plan table row {row!r}") from exc
    return [at(root) for root in roots]
