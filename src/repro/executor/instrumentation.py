"""Per-node execution instrumentation.

Mirrors PostgreSQL's ``Instrumentation`` structure (paper §5.4): every
plan node gets a tuple counter and a cost account, which is what makes
cost-limited execution and run-time selectivity monitoring possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, Optional

from ..exceptions import BudgetExceeded
from ..optimizer.plans import PlanNode


@dataclass
class NodeCounters:
    """Counters for one plan node."""

    tuples_out: int = 0
    cost: float = 0.0
    finished: bool = False


class Instrumentation:
    """Cost accounting + tuple counters for one plan execution.

    ``charge`` enforces the execution budget: the total spent can never
    exceed the budget — when an increment would cross it, the increment is
    clipped to the budget boundary and :class:`BudgetExceeded` is raised,
    modelling an executor killed exactly at its cost horizon.
    """

    def __init__(
        self,
        budget: Optional[float] = None,
        needed_columns: Optional[AbstractSet[str]] = None,
    ):
        self.budget = budget
        self.total_cost = 0.0
        #: Projection-pushdown set: qualified column names the run
        #: needs; ``None`` means all columns (SELECT *).
        self.needed_columns = needed_columns
        #: Optional ``(node, batches)`` spill-store replay: when a
        #: resumed spill execution reaches ``node``, its stored output is
        #: yielded instead of re-running the (already charged) subtree.
        self.replay = None
        #: While a build side records (``engine._BuildJoin.build``), its
        #: ordered log of charges (unperturbed), emits and finishes.
        self.log: Optional[list] = None
        self._counters: Dict[int, NodeCounters] = {}
        self._nodes: Dict[int, PlanNode] = {}

    def counters(self, node: PlanNode) -> NodeCounters:
        key = id(node)
        entry = self._counters.get(key)
        if entry is None:
            entry = NodeCounters()
            self._counters[key] = entry
            self._nodes[key] = node
        return entry

    def charge(self, node: PlanNode, cost: float):
        """Charge ``cost`` units to ``node``, enforcing the budget."""
        if cost < 0:
            raise ValueError("cannot charge negative cost")
        if self.budget is not None and self.total_cost + cost > self.budget:
            allowed = max(0.0, self.budget - self.total_cost)
            self.counters(node).cost += allowed
            self.total_cost = self.budget
            raise BudgetExceeded(
                f"budget {self.budget:.4g} exhausted at node {node.signature()}",
                spent=self.total_cost,
                instrumentation=self,
            )
        self.counters(node).cost += cost
        self.total_cost += cost

    def emit(self, node: PlanNode, tuples: int):
        """Record ``tuples`` output rows at ``node``."""
        if self.log is not None:
            self.log.append(("emit", node, tuples))
        self.counters(node).tuples_out += int(tuples)

    def mark_finished(self, node: PlanNode):
        if self.log is not None:
            self.log.append(("finish", node, None))
        self.counters(node).finished = True

    def tuples_out(self, node: PlanNode) -> int:
        return self.counters(node).tuples_out

    @property
    def total_tuples(self) -> int:
        """Tuples moved across all plan nodes (telemetry account)."""
        return sum(c.tuples_out for c in self._counters.values())

    def finished(self, node: PlanNode) -> bool:
        key = id(node)
        return key in self._counters and self._counters[key].finished

    def report(self) -> str:
        lines = [f"total cost: {self.total_cost:.4g}"]
        for key, counters in self._counters.items():
            node = self._nodes[key]
            lines.append(
                f"  {node.signature()}: out={counters.tuples_out} "
                f"cost={counters.cost:.4g} finished={counters.finished}"
            )
        return "\n".join(lines)
