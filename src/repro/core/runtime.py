"""Run-time bouquet execution (§5).

Two algorithm variants are provided, both driven through an abstract
:class:`ExecutionService` so they run identically against the cost-model
simulator (used for ESS-wide metric sweeps, as the paper does for
Figures 14-18) and against the real execution engine (Table 3):

* **basic** (Figure 7) — every plan on each contour is executed under the
  contour budget, in a fixed order, until one completes.
* **optimized** (Figure 13) — the running location ``q_run`` is tracked
  under the first-quadrant invariant; plans are chosen by the AxisPlans
  heuristic and executed in *spill* mode so the budget concentrates on
  learning one selectivity at a time; contours are crossed early when the
  learned location already prices beyond the current budget.  Spilled
  output is stored, not discarded, so a spilled run whose plan fits the
  contour budget resumes past the spill node and answers the query —
  which is what keeps every (contour, plan) pair down to a single
  budget-capped charge and hence the MSO within ``4(1+λ)ρ``.

Every Figure 13 decision is a pure function of per-row costs and masks
with a leading location axis (:func:`dominating`, :func:`axis_plans`,
:func:`pruned_by_floor`, :func:`pick`, :func:`fallback_order`,
:func:`endgame`, :func:`crosses_early`, :func:`exhausts`, :func:`book`):
:class:`BouquetRunner` asks them about one row, the sweep
(:mod:`repro.sweep`) about every location of a round at once.  So is the
cost-model world's spill (:func:`spill`), which the
:class:`AbstractExecutionService` runs on one row.  Each driver keeps
only its own costing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..exceptions import BouquetError
from ..obs.tracer import NULL_TRACER, Tracer
from ..optimizer.plans import (
    CostContext,
    NodeEstimate,
    PlanNode,
    first_error_node,
    formula_inputs,
    own_formula,
)
from .bouquet import PlanBouquet
from .contours import SLACK, ContourTables


#: Width of the §5.1 cost-equivalence group: AxisPlans candidates within
#: this fraction of the cheapest count as equally cheap.
EQUIVALENCE_THRESHOLD = 0.2

#: :func:`axis_plans`' depth where a plan was not met on any axis (a met
#: plan's depth is -1 at least, for no error node).
NOT_MET = -(10**9)


@dataclass
class LearnedSelectivity:
    """A lower bound for one error dimension discovered at run time."""

    pid: str
    value: float
    exact: bool


@dataclass
class KnownSelectivities:
    """What an execution substrate can tell before any plan runs: lower
    bounds it has *measured* (never estimated) and what measuring cost."""

    learned: Tuple[LearnedSelectivity, ...] = ()
    cost: float = 0.0


@dataclass
class RunState:
    """Where a run stands between two executions — all either driver's
    loop reads, so a run continues from any state as it starts from the
    origin."""

    qrun: List[float]
    exact: Set[int]
    cid: int = 0  # contour position
    total: float = 0.0  # cost charged so far
    #: Plans of contour ``cid`` already spilled (or pruned), to guarantee
    #: progress.
    attempted: AbstractSet[int] = frozenset()
    #: Plans of contour ``cid`` proven unable to complete under its
    #: budget (:func:`exhausts`).
    exhausted: AbstractSet[int] = frozenset()

    def cross(self) -> None:
        """On to the next contour, none of whose plans has been tried."""
        self.cid += 1
        self.attempted = self.exhausted = frozenset()


@dataclass(frozen=True)
class Move:
    """What a run does next on its contour, as the §5.1 decisions chose
    it: spill ``spill`` to learn ``unlearned``, or (``spill`` < 0) run
    ``order`` fully, first to last, and cross the contour if none
    completes.  ``attempted`` / ``exhausted`` are the contour's sets once
    the decision booked its floor prunes."""

    attempted: AbstractSet[int]
    exhausted: AbstractSet[int]
    order: Tuple[int, ...] = ()
    spill: int = -1
    unlearned: FrozenSet[str] = frozenset()


@dataclass
class ExecutionOutcome:
    """Result of one (cost-limited) plan execution."""

    completed: bool
    cost_spent: float
    learned: List[LearnedSelectivity] = field(default_factory=list)
    result_rows: Optional[int] = None


@dataclass
class ExecutionRecord:
    """One entry of the bouquet run trace (drives Table 3)."""

    contour_index: int
    plan_id: int
    spilled: bool
    budget: float
    cost_spent: float
    completed: bool
    learned: Tuple[LearnedSelectivity, ...] = ()

    @property
    def learned_pids(self) -> Tuple[str, ...]:
        return tuple(l.pid for l in self.learned)


@dataclass
class BouquetRunResult:
    """Complete account of one bouquet execution.

    ``total_cost`` is the cost charged by every execution, one after
    another, plus ``probe_cost`` — what the substrate charged for the
    selectivities it measured before the first contour.
    """

    total_cost: float
    executions: List[ExecutionRecord]
    final_plan_id: Optional[int]
    completed: bool
    result_rows: Optional[int] = None
    probe_cost: float = 0.0

    @property
    def execution_count(self) -> int:
        return len(self.executions)

    @property
    def partial_executions(self) -> int:
        return sum(1 for e in self.executions if not e.completed)

    def executions_per_contour(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for record in self.executions:
            counts[record.contour_index] = counts.get(record.contour_index, 0) + 1
        return counts


class ExecutionService:
    """What the bouquet driver needs from an execution substrate."""

    def known_selectivities(self) -> KnownSelectivities:
        """Selectivities the substrate can measure without executing a
        plan; the driver starts ``q_run`` there instead of at the ESS
        origin.  By default nothing is known — except that a proxy
        holding the real service as ``inner`` answers for it, so timing
        and budgeting wrappers see the same run as the bare service."""
        inner = getattr(self, "inner", None)
        return inner.known_selectivities() if inner is not None else KnownSelectivities()

    def run_full(self, plan_id: int, budget: float) -> ExecutionOutcome:
        """Execute the full plan under a cost budget."""
        raise NotImplementedError

    def run_spilled(
        self,
        plan_id: int,
        budget: float,
        unlearned_pids: FrozenSet[str],
    ) -> ExecutionOutcome:
        """Execute in spill mode (§5.3, spill-to-store variant): run the
        subtree up to the first node carrying an unlearned error pid,
        *storing* its output.  If the subtree resolves within the budget
        the run resumes the rest of the plan over the stored output — so
        a spilled execution that fits the budget answers the query
        outright (``completed=True``).  A non-completing spilled run
        always charges the full budget.

        This keeps the MSO accounting of §3 intact for the optimized
        driver: every (contour, plan) pair charges at most one contour
        budget, because a spill either answers the query or proves the
        plan cannot complete under this budget."""
        raise NotImplementedError


class AbstractExecutionService(ExecutionService):
    """Cost-model-world execution against a hidden true location ``qa``.

    A full run completes iff the plan's true cost fits the budget.  A
    spilled run answers the query when the whole plan fits the budget
    (spill-to-store resume); otherwise it charges the full budget,
    learning the targeted dimension exactly when the spilled subtree
    resolved, or advancing its lower bound to the last point of the
    2**-40 progress grid where the subtree's cost still fits the budget
    (:func:`reach_under_budget`, on the plan's parametric cost function).

    The cost-model world knows nothing before it executes — the paper's
    origin start is its definition — unless ``known`` injects bounds
    (``value <= qa``, equal when ``exact``), free of charge.
    """

    def __init__(
        self,
        bouquet: PlanBouquet,
        qa_values: Sequence[float],
        known: Sequence[LearnedSelectivity] = (),
    ):
        self.bouquet = bouquet
        self.space = bouquet.space
        self.qa_values = tuple(float(v) for v in qa_values)
        if len(self.qa_values) != self.space.dimensionality:
            raise BouquetError("qa values do not match ESS dimensionality")
        self._truth = self.space.assignment_for(self.qa_values)
        # One context for everything costed at the truth: sub-trees the
        # bouquet's plans share are costed once per service.
        self._at_truth = CostContext(
            self.space.query.schema, bouquet.cost_cache.optimizer.cost_model, self._truth
        )
        self._lows = {dim.pid: dim.lo for dim in self.space.dimensions}
        qa = dict(zip(self._lows, self.qa_values)) if known else {}
        for bound in known:
            if bound.pid not in qa:
                raise BouquetError(f"known selectivity of {bound.pid!r}: not an ESS dimension")
            if bound.value > qa[bound.pid] or (bound.exact and bound.value != qa[bound.pid]):
                raise BouquetError(f"known selectivity {bound} does not bound qa {self.qa_values}")
        self._known = KnownSelectivities(tuple(known))

    # -- plumbing -------------------------------------------------------

    def _plan(self, plan_id: int):
        return self.bouquet.registry.plan(plan_id)

    def true_cost(self, plan_id: int) -> float:
        return self._plan(plan_id).estimate(self._at_truth).cost

    # -- ExecutionService -----------------------------------------------

    def known_selectivities(self) -> KnownSelectivities:
        return self._known

    def run_full(self, plan_id: int, budget: float) -> ExecutionOutcome:
        cost = self.true_cost(plan_id)
        if cost <= budget:
            return ExecutionOutcome(completed=True, cost_spent=cost)
        return ExecutionOutcome(completed=False, cost_spent=budget)

    def run_spilled(
        self,
        plan_id: int,
        budget: float,
        unlearned_pids: FrozenSet[str],
    ) -> ExecutionOutcome:
        # The batched spill on one row: its context is the scalar truth,
        # whose constants every row index reads as they are.
        out = spill(
            self._plan(plan_id), unlearned_pids, self._lows, budget, self._at_truth, _ONE_ROW
        )
        completed = bool(out.answered[0])
        exact = completed or bool(out.exact[0])
        return ExecutionOutcome(
            completed=completed,
            cost_spent=float(out.spent[0]),
            learned=[
                LearnedSelectivity(pid, value, exact)
                for pid, value in zip(out.targets, out.learned[0].tolist())
            ],
        )


_ONE_ROW = np.zeros(1, dtype=np.int64)


def _geometric_interp(lo, hi, t):
    """Log-space interpolation between ``lo`` (t=0) and ``hi`` (t=1),
    elementwise over the arrays ``t`` (and ``hi``); ``hi`` where it is
    not above ``lo``."""
    return np.where(hi <= lo, hi, lo * (hi / lo) ** t)


def _at(value, rows: np.ndarray):
    """``value`` at ``rows``: a per-row array gathered, a constant as it is."""
    return value[rows] if np.ndim(value) else value


def _filled(value, n: int) -> np.ndarray:
    """A per-row cost as an ``(n,)`` array: an array as it is, a constant
    filled out."""
    return value if np.ndim(value) else np.full(n, value, dtype=float)


#: A spilled run's progress is found on the grid of multiples of 2**-40.
_GRID = 1 << 40


def reach_under_budget(
    cost_at: Callable[[np.ndarray], Sequence[float]],
    budget: float,
    cost_at_one: Sequence[float],
    log_spread: Sequence[float],
) -> np.ndarray:
    """How far a spilled run gets, row by row: the largest ``t = k *
    2**-40`` in ``[0, 1)`` with ``cost_at(t) <= budget`` (0 where even
    ``cost_at(0)`` is over) — the point 40 halvings of ``[0, 1]`` end
    on, bit for bit, wherever ``cost <= budget`` is monotone on that
    grid, which PCM makes it.  ``cost_at_one`` is over the budget.

    Bracketed false position on ``k``, interpolated in ``exp(rate * t)``:
    with ``rate = log_spread`` (the summed ``log(truth / lo)`` of the
    moving targets) that is the product of the selectivities a spill
    node moves, its cost is affine in it, and two probes close the
    bracket.  When two proposals in a row fail to halve the bracket (an
    index scan bends with its index pid alone, an ``inl`` join at two
    rates, a cost can be flat to rounding) the next probe is the
    midpoint, whose cost re-estimates ``rate``, and midpoints alternate
    with proposals until one halves it again.
    """
    rate = np.array(log_spread, dtype=float)
    lo = np.zeros(len(rate), dtype=np.int64)
    c_lo = np.asarray(cost_at(lo / _GRID), dtype=float)
    c_hi = np.asarray(cost_at_one, dtype=float)
    hi = np.where(c_lo <= budget, _GRID, 1)  # a run that cannot start: closed at 0
    stalled = np.zeros_like(lo)
    while ((width := hi - lo) > 1).any():
        halve = stalled >= 2
        with np.errstate(all="ignore"):
            share = (budget - c_lo) / (c_hi - c_lo)
            bent = np.log1p(share * np.expm1(rate * (width / _GRID))) / rate * _GRID
            step = np.where(rate != 0, bent, share * width)
        step = np.where(halve | ~np.isfinite(step), width // 2, step)
        k = lo + np.clip(step, 1, np.maximum(width - 1, 1)).astype(np.int64)
        cost = np.asarray(cost_at(k / _GRID), dtype=float)
        with np.errstate(all="ignore"):
            seen = np.log((c_hi - cost) / (cost - c_lo)) / (width // 2 / _GRID)
        rate = np.where(halve & np.isfinite(seen), seen, rate)
        fits = (width > 1) & (cost <= budget)
        over = (width > 1) & ~(cost <= budget)  # a NaN cost is over
        lo, c_lo = np.where(fits, k, lo), np.where(fits, cost, c_lo)
        hi, c_hi = np.where(over, k, hi), np.where(over, cost, c_hi)
        stalled = np.where(halve, 1, np.where(2 * (hi - lo) <= width, 0, stalled + 1))
    return lo / _GRID


class SpilledRows(NamedTuple):
    """One spilled execution at a batch of rows (:func:`spill`)."""

    #: The query was answered: the spill-to-store resume fit the budget,
    #: spending the plan's true cost.
    answered: np.ndarray
    #: The spilled subtree resolved (exact learning) but the resumed plan
    #: consumed the whole budget.
    exact: np.ndarray
    #: The cost charged.
    spent: np.ndarray
    #: The unlearned pids the spill node evaluates, sorted: what it learns.
    targets: Tuple[str, ...]
    #: ``(rows, targets)``: where the targets stand after the run.
    learned: np.ndarray
    #: Evaluations of the spill node's own formula.
    evaluations: int


def spill(
    plan: PlanNode,
    unlearned: FrozenSet[str],
    lows: Mapping[str, float],
    budget: float,
    at_truth: CostContext,
    rows: np.ndarray,
) -> SpilledRows:
    """The cost-model world's spill-mode execution (§5.3, spill-to-store)
    of ``plan`` at a batch of rows: :meth:`AbstractExecutionService.run_spilled`
    on one row, the sweep's on every row of a round.

    ``at_truth`` costs the clamped true selectivities (per-row arrays, or
    constants that every row reads); ``rows`` index it; ``lows`` is each
    error dimension's ``lo``.  A row whose plan fits the budget is
    answered; otherwise it charges the budget, learning the targets
    exactly where the spilled subtree fits it, and elsewhere the last
    2**-40 grid point whose cost still does (:func:`reach_under_budget`).
    A plan with no node evaluating an unlearned pid runs fully.
    """
    n = len(rows)
    plan_full = _filled(_at(plan.estimate(at_truth).cost, rows), n)
    answered = plan_full <= budget
    spent = np.where(answered, plan_full, budget)
    node = first_error_node(plan, unlearned)
    if node is None:
        return SpilledRows(answered, np.zeros(n, dtype=bool), spent, (), np.empty((n, 0)), 0)
    targets = {pid: lows[pid] for pid in sorted(node.local_pids & unlearned)}
    evaluations = 0

    def subtree(rows: np.ndarray):
        # The spilled subtree over ``rows``, as functions of ``t``: where
        # the targets stand and what it costs.  Nothing below the spill
        # node reads an unlearned pid, so its inputs are gathered from
        # the truth and only the node's own formula (it reads its local
        # pids only) moves with ``t``.
        formula = own_formula(node, [
            e and NodeEstimate(_at(e.rows, rows), _at(e.cost, rows))
            for e in formula_inputs(node, at_truth)
        ])
        truth = {pid: _at(at_truth.selectivity(pid), rows) for pid in node.local_pids}

        def reached(t: np.ndarray) -> Dict[str, np.ndarray]:
            return {pid: _geometric_interp(lo, truth[pid], t) for pid, lo in targets.items()}

        def cost_at(t: np.ndarray) -> np.ndarray:
            nonlocal evaluations
            evaluations += 1
            moved = CostContext(at_truth.schema, at_truth.cost_model, {**truth, **reached(t)})
            return _filled(formula(moved).cost, len(rows))

        return truth, reached, cost_at

    truth, _reached, cost_at = subtree(rows)
    subtree_full = cost_at(np.ones(n))
    exact = ~answered & (subtree_full <= budget)
    learned = np.stack([np.broadcast_to(truth[pid], n) for pid in targets], axis=1)
    short = ~answered & ~exact
    if short.any():
        # The rows that stop short are gathered once, not per probe.
        truth, reached, cost_at = subtree(rows[short])
        spread = sum(np.log(np.maximum(truth[pid] / lo, 1.0)) for pid, lo in targets.items())
        lo_t = reach_under_budget(
            cost_at, budget, subtree_full[short], np.broadcast_to(spread, int(short.sum()))
        )
        learned[short] = np.stack(list(reached(lo_t).values()), axis=1)
    return SpilledRows(answered, exact, spent, tuple(targets), learned, evaluations)


# ---------------------------------------------------------------------------
# The Figure 13 decisions, row by row
# ---------------------------------------------------------------------------


def dominating(tables: ContourTables, qrun: np.ndarray) -> np.ndarray:
    """First-quadrant pruning (§5.1): ``(rows, tables.plan_ids)``, does
    the plan own a contour location whose selectivities dominate the
    row's ``q_run`` componentwise?  ``qa >= q_run``, so a contour where
    no location does cannot contain ``qa``."""
    selectivities, starts = tables.frontier
    covers = np.logical_and.reduce(selectivities >= qrun[:, None, :] * (1.0 - SLACK), axis=2)
    return np.logical_or.reduceat(covers, starts, axis=1)


def axis_plans(
    tables: ContourTables, qrun: np.ndarray, exact: np.ndarray, attempted: np.ndarray
) -> Tuple[List[int], np.ndarray, np.ndarray]:
    """AxisPlans(q_run) (§5.1): the contour plans met where the positive
    axes through the row's snapped ``q_run`` leave the contour, along the
    dimensions not learned ``exact``ly, less the plans ``attempted``;
    ``exact`` ``(rows, D)`` and ``attempted`` ``(rows, tables.plan_ids)``
    are per-row masks.  Returns ``(plans, present, depth)``: the plans
    some row has as a candidate, ascending, and per row and plan whether
    it is one and the depth of its error node for the deepest axis it
    was met on (:data:`NOT_MET` if none)."""
    columns, depths = tables.gather
    space = tables.space
    cells = np.ravel_multi_index(tuple(space.snap(qrun).T), space.shape)
    met_on = columns[:, cells].T  # (rows, D): the column met along each axis
    met_on[exact] = -1
    hit = met_on[:, :, None] == np.arange(len(tables.plan_ids))
    met = np.where(hit, depths.T[None, :, :], NOT_MET).max(axis=1)
    present = (met > NOT_MET) & ~attempted
    keep = present.any(axis=0)
    plans = [pid for pid, kept in zip(tables.plan_ids, keep.tolist()) if kept]
    return plans, present[:, keep], met[:, keep]


def pruned_by_floor(floors: np.ndarray, present: np.ndarray, budget: float) -> np.ndarray:
    """The spill-floor prune (§5.1): a candidate whose spilled subtree
    (the whole plan when it has no error node) already prices at or
    above the budget at ``q_run`` learns nothing by spilling, and — the
    full plan costing at least as much — cannot complete either."""
    return present & (floors >= budget * (1.0 - SLACK))


def pick(
    plans: Sequence[int], costs: np.ndarray, depth: np.ndarray, productive: np.ndarray
) -> np.ndarray:
    """The §5.1 choice among each row's ``productive`` candidates: the
    cost-equivalence group (within :data:`EQUIVALENCE_THRESHOLD` of the
    cheapest at ``q_run``), in it the deepest error node, then the
    cheapest, then the lowest plan id.  -1 where none is productive."""
    if not len(plans):
        return np.full(len(costs), -1, dtype=np.int64)
    masked = np.where(productive, costs, np.inf)
    threshold = masked.min(axis=1, keepdims=True) * (1.0 + EQUIVALENCE_THRESHOLD)
    group = productive & (masked <= threshold)
    deepest = np.where(group, depth, NOT_MET)
    group &= deepest == deepest.max(axis=1, keepdims=True)
    first = np.where(group, masked, np.inf).argmin(axis=1)  # cheapest, then lowest id
    return np.where(group.any(axis=1), np.asarray(plans)[first], -1)


def fallback_order(
    costs: np.ndarray, eligible: np.ndarray, budget: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Nothing left to learn on the contour: the explicit completion
    check.  Each row's ``eligible`` plans run fully, cheapest at
    ``q_run`` first (the lower column first on a tie), except those
    already costlier than the budget there — by PCM and the
    first-quadrant invariant they cannot complete.  Returns ``(order,
    runs)``: per row, columns in run order, of which the first ``runs``
    run; the contour is crossed if none completes."""
    runnable = eligible & (costs <= budget * (1.0 + SLACK))
    order = np.argsort(np.where(runnable, costs, np.inf), axis=1, kind="stable")
    return order, runnable.sum(axis=1)


def endgame(costs: np.ndarray, eligible: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every dimension learned exactly: ``q_run`` is ``qa``, and the
    cheapest eligible plan there (the lower column on a tie) runs fully;
    the contour is crossed if it fails.  As :func:`fallback_order`, one
    run per row that has an eligible plan."""
    order = np.where(eligible, costs, np.inf).argmin(axis=1)[:, None]
    return order, eligible.any(axis=1).astype(np.int64)


def crosses_early(costs: np.ndarray, budget: float) -> np.ndarray:
    """Figure 13's early contour change: ``costs`` being every bouquet
    plan's at the learned ``q_run``, the optimal cost there already
    reaches the contour budget, so ``qa`` lies beyond the contour."""
    return costs.min(axis=1) >= budget


def exhausts(completed: np.ndarray, spent: np.ndarray, budget: float) -> np.ndarray:
    """Did the execution prove its plan cannot complete under the budget?
    It did not complete and consumed the whole budget, and by PCM a rerun
    fares no better."""
    return ~completed & (spent >= budget * (1.0 - SLACK))


def book(
    attempted: AbstractSet[int],
    exhausted: AbstractSet[int],
    plans: AbstractSet[int],
    spilled: bool,
    exhausting: bool,
) -> Tuple[AbstractSet[int], AbstractSet[int]]:
    """One charge per (contour, plan), which keeps the MSO within
    ``4(1+λ)ρ``: ``plans`` spilled or pruned on the contour join
    ``attempted`` and are no AxisPlans candidates again, and ``plans``
    proven ``exhausting`` join ``exhausted`` and run on it no more.
    Returns the two sets after; the sweep passes per-row masks over the
    bouquet's plans instead, which ``|`` joins alike."""
    return (
        attempted | plans if spilled else attempted,
        exhausted | plans if exhausting else exhausted,
    )


# ---------------------------------------------------------------------------
# The bouquet driver
# ---------------------------------------------------------------------------


class BouquetRunner:
    """Drives a bouquet execution against an :class:`ExecutionService`."""

    def __init__(
        self,
        bouquet: PlanBouquet,
        service: ExecutionService,
        mode: str = "optimized",
        equivalence_threshold: float = EQUIVALENCE_THRESHOLD,
        model_error_delta: float = 0.0,
        tracer: Optional[Tracer] = None,
        crossing: Optional[str] = None,
    ):
        """``mode`` is ``optimized`` (Figure 13) or ``basic`` (Figure 7).
        ``model_error_delta`` inflates every contour budget by (1+δ),
        preserving the completion guarantee under bounded cost-modeling
        error (§3.4) at the price of an (1+δ)² MSO factor.

        Contour plans always run one at a time, and the §5.1 pick always
        groups at :data:`EQUIVALENCE_THRESHOLD`.  ``crossing`` and
        ``equivalence_threshold`` select nothing: only ``None`` /
        ``"sequential"`` and :data:`EQUIVALENCE_THRESHOLD` are accepted,
        because the ledger's serving workload
        (``ledger/workloads/serving.py``, kept byte-frozen) still passes
        ``BouquetConfig.crossing`` and ``.equivalence_threshold``."""
        if crossing not in (None, "sequential"):
            raise BouquetError(f"unknown crossing strategy {crossing!r}")
        if equivalence_threshold != EQUIVALENCE_THRESHOLD:
            raise BouquetError(
                f"equivalence threshold is {EQUIVALENCE_THRESHOLD}, not {equivalence_threshold!r}"
            )
        if mode not in ("basic", "optimized"):
            raise BouquetError(f"unknown bouquet mode {mode!r}")
        if model_error_delta < 0:
            raise BouquetError("model_error_delta must be non-negative")
        self.bouquet = bouquet
        self.service = service
        self.mode = mode
        self.model_error_delta = model_error_delta
        self.space = bouquet.space
        self.budgets = [
            budget * (1.0 + model_error_delta) for budget in bouquet.budgets
        ]
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._pid_to_dim = {dim.pid: i for i, dim in enumerate(self.space.dimensions)}
        # q_run advances monotonically but revisits the same point many
        # times within a contour (candidate ranking, spill floors,
        # fallback ordering, crossing checks): one costing context per
        # point, so every node of every plan is costed there once.  The
        # start point's is the bouquet's (:meth:`_start`), shared by
        # every run from there; those after a spill are this run's.
        self._contexts: Dict[Tuple[float, ...], CostContext] = {}

    # ------------------------------------------------------------------

    def run(self) -> BouquetRunResult:
        with self.tracer.span(
            "execute.bouquet",
            mode=self.mode,
            contours=len(self.bouquet.contours),
            cardinality=self.bouquet.cardinality,
        ) as span:
            state, probe_cost = self._start()
            result = self._run_from(state, self._first_move(state))
            result.probe_cost = probe_cost
            result.total_cost += probe_cost
            span.set(
                total_cost=result.total_cost,
                executions=result.execution_count,
                completed=result.completed,
                final_plan=result.final_plan_id,
            )
            return result

    def _start(self) -> Tuple[RunState, float]:
        """The one place a run's initial state is decided: ``q_run`` at
        the ESS origin, raised to whatever the service has measured (any
        ``q_lb <= qa`` is as sound a start as the origin — first-quadrant
        invariant), the dimensions known exactly, nothing tried or
        charged on the contour the run opens on (:meth:`_open`, kept by
        the bouquet for the last start point) — and the probes' price."""
        qrun = [dim.lo for dim in self.space.dimensions]
        exact: Set[int] = set()
        known = self.service.known_selectivities()
        if known.learned:
            self._merge(qrun, exact, known.learned)
            if self.tracer.enabled:
                self.tracer.count("core.pinned_dimensions", len(exact))
                dims = self.space.dimensions
                self._trace_qrun(
                    qrun,
                    exact,
                    probe_cost=known.cost,
                    pinned={dims[d].pid: qrun[d] for d in sorted(exact)},
                )
        point = tuple(qrun)
        self._opening = self.bouquet.opening((point, frozenset(exact)), lambda: self._open(qrun))
        cid, context, _first = self._opening
        self._contexts[point] = context
        return RunState(qrun, exact, cid), known.cost

    def _open(self, qrun: List[float]) -> Tuple[int, CostContext, Dict]:
        """How every run from the start point ``qrun`` opens: on the first
        contour with a location dominating it (one before it cannot hold
        ``qa >= q_run``, and both Figure 7 and Figure 13 cross it without
        a run), with the costing context at ``qrun``, and the first
        :class:`Move` there per ``(mode, model_error_delta)``, filled by
        :meth:`_first_move`."""
        row = np.array([qrun])
        contours = len(self.bouquet.contours)
        cid = next(
            (k for k in range(contours) if dominating(self.bouquet.contour_tables(k), row).any()),
            contours,
        )
        return cid, self._context(qrun), {}

    def _first_move(self, state: RunState) -> Optional[Move]:
        """The :class:`Move` a run from the start ``state`` opens with:
        decided once per start point, mode and budgets, and kept with the
        bouquet's opening."""
        if state.cid == len(self.bouquet.contours):
            return None
        first = self._opening[2]
        key = (self.mode, self.model_error_delta)
        move = first.get(key)
        if move is None:
            move = first[key] = self._move(state)
        return move

    def _merge(
        self, qrun: List[float], exact: Set[int], learned: Sequence[LearnedSelectivity]
    ) -> None:
        """Fold learned lower bounds into ``q_run`` (first-quadrant
        invariant: they are lower bounds, so max-merge is safe).  A value
        past the dimension's ``hi`` (the data's truth outside the ESS) is
        clamped to it, so the last contour still has a dominating
        location; in the cost-model world ``value <= qa <= hi`` already."""
        dims = self.space.dimensions
        for item in learned:
            d = self._pid_to_dim.get(item.pid)
            if d is None:
                continue
            value = min(item.value, dims[d].hi)
            if value > qrun[d]:
                qrun[d] = value
            if item.exact:
                exact.add(d)

    def _trace_qrun(self, qrun: Sequence[float], exact: Set[int], **fields) -> None:
        dims = self.space.dimensions
        self.tracer.event(
            "runtime.qrun",
            values=list(qrun),
            exact=[dims[d].pid for d in sorted(exact)],
            **fields,
        )

    def _trace_execution(self, record: ExecutionRecord) -> None:
        """Emit one per-execution event (the Table 3 account row)."""
        if not self.tracer.enabled:
            return
        self.tracer.event(
            "runtime.execution",
            contour=record.contour_index,
            plan=record.plan_id,
            spilled=record.spilled,
            budget=record.budget,
            cost_spent=record.cost_spent,
            completed=record.completed,
            learned=list(record.learned_pids),
            learned_values={l.pid: l.value for l in record.learned},
        )

    # -- the decisions ---------------------------------------------------

    def _move(self, state: RunState) -> Optional[Move]:
        """The decision on contour ``state.cid`` from ``state``; None when
        no location of the contour dominates ``q_run`` (``qa`` then lies
        beyond it).  Figure 7 runs every dominating plan fully, in plan-id
        order.  Figure 13 spills the picked AxisPlans candidate, after
        the spill-floor prune, and with nothing (left) to learn runs the
        endgame's plan or the fallback order fully."""
        tables = self.bouquet.contour_tables(state.cid)
        qrun, exact = state.qrun, state.exact
        row = np.array([qrun])
        dom = dominating(tables, row)
        # One row: a list's any() costs less than numpy's.
        if not any(dom[0].tolist()):
            return None
        if self.mode == "basic":
            order = np.asarray(tables.plan_ids)[dom[0]].tolist()
            return Move(state.attempted, state.exhausted, tuple(order))
        dims = self.space.dimensions
        budget = self.budgets[state.cid]
        attempted, exhausted = state.attempted, state.exhausted
        if len(exact) < len(dims):
            unlearned = frozenset(dims[d].pid for d in range(len(dims)) if d not in exact)
            plans, present, depth = axis_plans(
                tables, row, np.array([[d in exact for d in range(len(dims))]]),
                np.array([[pid in attempted for pid in tables.plan_ids]]),
            )
            floors = [[self._spill_floor(pid, qrun, unlearned) for pid in plans]]
            pruned = pruned_by_floor(np.array(floors), present, budget)
            productive = present & ~pruned
            (choice,) = pick(plans, self._costs(plans, qrun, productive), depth, productive)
            attempted, exhausted = book(
                attempted, exhausted,
                frozenset(p for p, out in zip(plans, pruned[0]) if out), True, True,
            )
            if choice >= 0:
                return Move(attempted, exhausted, spill=int(choice), unlearned=unlearned)
        eligible = dom
        if exhausted:
            eligible = dom & [[pid not in exhausted for pid in tables.plan_ids]]
        costs = self._costs(tables.plan_ids, qrun, eligible)
        if len(exact) == len(dims):
            order, runs = endgame(costs, eligible)
        else:
            order, runs = fallback_order(costs, eligible, budget)
        plans = tables.plan_ids
        return Move(attempted, exhausted, tuple(plans[j] for j in order[0, : runs[0]].tolist()))

    # -- the loop --------------------------------------------------------

    def _run_from(self, state: RunState, move: Optional[Move] = None) -> BouquetRunResult:
        """The run from ``state`` (Figure 13, or Figure 7 in basic mode),
        advanced in place and consistent at every execution (a run cut
        there resumes from it): the trace holds what ran from here on,
        ``total_cost`` all ``state`` was charged.  ``move``, when given,
        is :meth:`_move` of ``state`` already decided."""
        trace: List[ExecutionRecord] = []
        contours = self.bouquet.contours
        qrun, exact = state.qrun, state.exact
        while state.cid < len(contours):
            if move is None:
                move = self._move(state)
            if move is None:
                state.cross()
                continue
            contour, budget = contours[state.cid], self.budgets[state.cid]
            state.attempted, state.exhausted = move.attempted, move.exhausted
            if move.spill < 0:
                finished = self._run_in_order(trace, state, contour, budget, move.order)
                if finished is not None:
                    return finished
                move = None
                continue
            choice, unlearned, move = move.spill, move.unlearned, None
            outcome = self.service.run_spilled(choice, budget, unlearned)
            finished = self._book(trace, state, contour, choice, budget, outcome, spilled=True)
            if finished is not None:
                # Spill-to-store completion: the resumed plan finished
                # under the budget, so this execution answered the query.
                return finished
            self._book_run(state, choice, outcome, budget, spilled=True)
            self._merge(qrun, exact, outcome.learned)
            if self.tracer.enabled:
                self._trace_qrun(qrun, exact)
            if state.cid + 1 < len(contours) and crosses_early(
                self._costs(self.bouquet.plan_ids, qrun), budget
            )[0]:
                if self.tracer.enabled:
                    self.tracer.event(
                        "runtime.contour_crossed", contour=contour.index, early=True
                    )
                state.cross()
        return BouquetRunResult(
            total_cost=state.total, executions=trace, final_plan_id=None, completed=False
        )

    def _run_in_order(
        self, trace, state: RunState, contour, budget: float, plans: Sequence[int]
    ) -> Optional[BouquetRunResult]:
        """Run ``plans`` fully, in that order, until one completes (its
        result); cross the contour if none does."""
        for plan_id in plans:
            outcome = self.service.run_full(plan_id, budget)
            finished = self._book(trace, state, contour, plan_id, budget, outcome, spilled=False)
            if finished is not None:
                return finished
            self._book_run(state, plan_id, outcome, budget, spilled=False)
        state.cross()
        return None

    @staticmethod
    def _book_run(
        state: RunState, plan_id: int, outcome: ExecutionOutcome, budget: float, spilled: bool
    ) -> None:
        """:func:`book` an execution of ``plan_id`` that did not answer
        the query into ``state`` (one that did ends the run)."""
        exhausting = exhausts(np.array([outcome.completed]), np.array([outcome.cost_spent]), budget)
        state.attempted, state.exhausted = book(
            state.attempted, state.exhausted, frozenset((plan_id,)), spilled, bool(exhausting[0])
        )

    # -- helpers ---------------------------------------------------------

    def _book(
        self,
        trace: List[ExecutionRecord],
        state: RunState,
        contour,
        plan_id: int,
        budget: float,
        outcome: ExecutionOutcome,
        spilled: bool,
    ) -> Optional[BouquetRunResult]:
        """Book one execution of either driver: charge it to the state's
        total, record and trace it.  Returns the finished run's
        result when the execution completed."""
        state.total += outcome.cost_spent
        record = ExecutionRecord(
            contour_index=contour.index,
            plan_id=plan_id,
            spilled=spilled,
            budget=budget,
            cost_spent=outcome.cost_spent,
            completed=outcome.completed,
            learned=tuple(outcome.learned) if spilled else (),
        )
        trace.append(record)
        self._trace_execution(record)
        if not outcome.completed:
            return None
        return BouquetRunResult(
            total_cost=state.total,
            executions=trace,
            final_plan_id=plan_id,
            completed=True,
            result_rows=outcome.result_rows,
        )

    def _context(self, values: Sequence[float]) -> CostContext:
        """The costing context at one continuous point, built on first use."""
        key = tuple(values)
        ctx = self._contexts.get(key)
        if ctx is None:
            optimizer = self.bouquet.cost_cache.optimizer
            ctx = self._contexts[key] = CostContext(
                optimizer.schema, optimizer.cost_model, self.space.assignment_for(values)
            )
        return ctx

    def _cost_at_values(self, plan_id: int, values: Sequence[float]) -> float:
        return self.bouquet.registry.plan(plan_id).estimate(self._context(values)).cost

    def _spill_floor(
        self, plan_id: int, qrun: Sequence[float], unlearned: FrozenSet[str]
    ) -> float:
        """Cost of the plan's spilled subtree (the whole plan when it has
        no error node) at q_run — a lower bound on what a spilled
        execution will charge, computable from compile-time cost
        functions alone."""
        plan = self.bouquet.registry.plan(plan_id)
        node = first_error_node(plan, unlearned) or plan
        return node.estimate(self._context(qrun)).cost

    def _costs(
        self, plans: Sequence[int], qrun: Sequence[float], wanted: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``(1, len(plans))``: the ``wanted`` plans' costs at ``qrun`` (all
        by default); a decision reads no other entry, left at ``inf``."""
        want = [True] * len(plans) if wanted is None else wanted[0].tolist()
        return np.array([[
            self._cost_at_values(pid, qrun) if w else np.inf for pid, w in zip(plans, want)
        ]])
