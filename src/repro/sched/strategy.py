"""The crossing-strategy protocol and its three implementations by name.

A crossing strategy answers one question: *given the surviving plans of
one isocost contour and its budget, how are their executions scheduled?*
The driver (:class:`repro.core.runtime.BouquetRunner`) owns everything
else — contour climbing, first-quadrant pruning, ``q_run`` merging — so
strategies stay small and composable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from ..core.runtime import ExecutionOutcome, ExecutionRecord, ExecutionService
from ..exceptions import BouquetError
from ..obs.tracer import NULL_TRACER, Tracer
from .ledger import ContourLedger


@dataclass
class CrossingRequest:
    """Everything a strategy needs to cross one contour.

    ``plan_ids`` are the surviving (first-quadrant dominating) plans in
    deterministic (ascending id) order; ``ledger`` is the contour's
    account on the shared :class:`~repro.sched.ledger.BudgetLedger`.
    """

    contour_index: int
    plan_ids: Sequence[int]
    budget: float
    service: ExecutionService
    ledger: ContourLedger
    tracer: Tracer = NULL_TRACER


@dataclass
class CrossingResult:
    """What one contour crossing produced.

    ``winner_plan_id`` is set iff some plan completed the query within
    the contour budget (in cost-time: the *earliest* completer).  All
    ``learned`` selectivity lower bounds — including those harvested
    from cancelled stragglers — are merged into ``q_run`` by the driver
    before it climbs to the next contour.
    """

    records: List[ExecutionRecord] = field(default_factory=list)
    winner_plan_id: Optional[int] = None
    winner_outcome: Optional[ExecutionOutcome] = None
    learned: List = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return self.winner_plan_id is not None


class CrossingStrategy:
    """Schedules the executions that cross one isocost contour."""

    #: One of :data:`CROSSING_NAMES`; also reported in ``sched.cross`` spans.
    name: str = "?"

    def cross(self, request: CrossingRequest) -> CrossingResult:
        raise NotImplementedError


#: The stable strategy names (used by config validation and the CLI).
CROSSING_NAMES = ("sequential", "concurrent", "timesliced")


def resolve_crossing(
    crossing: Union[str, CrossingStrategy, None],
) -> CrossingStrategy:
    """Turn a config value into a strategy instance.

    Accepts one of :data:`CROSSING_NAMES`, an already-built strategy
    (passed through, so callers can tune worker counts / quanta), or
    ``None`` (the sequential default).
    """
    if isinstance(crossing, CrossingStrategy):
        return crossing
    # Imported here: the strategy modules import this one for the protocol.
    from .concurrent import ConcurrentCrossing
    from .sequential import SequentialCrossing
    from .timesliced import TimeSlicedCrossing

    strategies = {
        "sequential": SequentialCrossing,
        "concurrent": ConcurrentCrossing,
        "timesliced": TimeSlicedCrossing,
    }
    cls = strategies.get("sequential" if crossing is None else crossing)
    if cls is None:
        raise BouquetError(
            f"unknown crossing strategy {crossing!r} "
            f"(expected one of {list(CROSSING_NAMES)})"
        )
    return cls()
