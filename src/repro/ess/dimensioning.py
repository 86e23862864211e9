"""Identifying the error-prone selectivity dimensions (§4.1).

Two complementary mechanisms:

* **Uncertainty classification rules** (after Kabra & DeWitt, cited in
  §4.1): each predicate is graded from NONE to VERY_HIGH uncertainty
  based on what the statistics can and cannot promise.  This is the
  statistics-only rule the API compiles with by default.
* **Error-sensitivity ranking** (PARQO-style, beyond the paper): for
  each candidate the base-assignment-optimal plan is re-costed across a
  selectivity sweep of that predicate alone and compared against the
  sweep's true optimum; the worst-case suboptimality *penalty* measures
  how badly an estimation error on that predicate could hurt, which is
  exactly what an ESS dimension exists to protect against.  This is the
  automatic per-query strategy the workload generator
  (:mod:`repro.wlgen`) uses in place of Table 2's hand-picked dims:
  :func:`dimension_query` ranks a generated query around its actual
  selectivities and packages the choice with its provenance
  (:class:`DimensioningResult`) for the campaign record.  It also
  stands in for §8's elimination of dimensions whose cost derivative
  is small: a dimension whose sweep barely hurts the base plan scores
  a penalty near 1 and is not chosen.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..batchopt.kernel import stack_assignments
from ..catalog.statistics import DatabaseStatistics
from ..datagen.database import Database
from ..exceptions import EssError
from ..optimizer.optimizer import Optimizer
from ..optimizer.plans import CostContext
from ..optimizer.selectivity import actual_selectivities
from ..query.predicates import JoinPredicate, SelectionPredicate
from ..query.query import Query
from .space import ErrorDimension


class Uncertainty(enum.IntEnum):
    """Graded estimation uncertainty of one predicate (§4.1)."""

    NONE = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3
    VERY_HIGH = 4


def classify_predicate(
    query: Query,
    pid: str,
    statistics: Optional[DatabaseStatistics],
) -> Uncertainty:
    """Apply the uncertainty-modelling rules to one predicate.

    * no statistics at all -> VERY_HIGH (magic numbers);
    * PK-FK equi-join -> NONE (derivable from schema constraints when the
      whole PK side participates, §8);
    * other equi-joins -> HIGH (the 1/max(ndv) formula assumes
      uniformity);
    * range selections with histograms -> LOW;
    * equality selections -> LOW when the value is a tracked MCV,
      MEDIUM otherwise (per-distinct uniformity assumption).
    """
    pred = query.predicate(pid)
    if isinstance(pred, JoinPredicate):
        if query.is_pk_fk_join(pred):
            return Uncertainty.NONE
        return Uncertainty.HIGH
    if not isinstance(pred, SelectionPredicate):  # pragma: no cover
        raise EssError(f"unknown predicate kind for {pid!r}")
    col_stats = (
        None if statistics is None else statistics.column(pred.table, pred.column)
    )
    if col_stats is None:
        return Uncertainty.VERY_HIGH
    if pred.is_range:
        return Uncertainty.LOW if col_stats.histogram_bounds else Uncertainty.MEDIUM
    if pred.op == "in":
        return Uncertainty.MEDIUM  # per-value uniformity assumptions stack
    if pred.value in col_stats.mcv_values:
        return Uncertainty.LOW
    return Uncertainty.MEDIUM


def select_error_dimensions(
    query: Query,
    statistics: Optional[DatabaseStatistics],
    threshold: Uncertainty = Uncertainty.MEDIUM,
) -> List[str]:
    """Predicates whose uncertainty is at or above ``threshold``.

    The paper's fallback — "make all predicates selectivity dimensions" —
    is ``threshold=Uncertainty.NONE``.
    """
    return [
        pid
        for pid in query.predicate_ids
        if classify_predicate(query, pid, statistics) >= threshold
    ]


# ---------------------------------------------------------------------------
# Error-sensitivity ranking (PARQO-style penalty of estimation error)
# ---------------------------------------------------------------------------

#: Selectivity range for candidate *selection* dimensions (mirrors
#: :data:`repro.query.workload.SELECTION_DIM_RANGE` without the import
#: cycle a module-level import would create).
_SELECTION_CANDIDATE_RANGE = (1e-4, 1.0)

#: Decades below the legal maximum spanned by candidate join dimensions.
_JOIN_CANDIDATE_DECADES = 3.0


@dataclass
class SensitivityScore:
    """Measured error-sensitivity of one candidate dimension.

    ``penalty`` is the worst-case multiplicative suboptimality the
    base-optimal plan suffers when the candidate's selectivity is swept
    across its legal range (>= 1; 1 means errors on this predicate are
    harmless).  ``cost_span`` is the max/min ratio of the *optimal* cost
    along the same sweep — the §8 derivative signal, kept as a
    tie-breaking secondary indicator.
    """

    dimension: ErrorDimension
    penalty: float
    cost_span: float

    @property
    def key(self) -> Tuple[float, float, str]:
        """Descending-sort key: penalty, then span, then stable pid."""
        return (-self.penalty, -self.cost_span, self.dimension.pid)


def candidate_error_dimensions(query: Query) -> List[ErrorDimension]:
    """Every predicate of ``query`` as a candidate ESS dimension.

    Join candidates span :data:`_JOIN_CANDIDATE_DECADES` orders of
    magnitude below their schematically-legal maximum (1/|PK| for FK
    joins, §4.1); selection candidates span
    :data:`_SELECTION_CANDIDATE_RANGE`.  Ordered by pid so downstream
    ranking is deterministic.
    """
    from ..query.workload import join_dim_maximum

    schema = query.schema
    dims: List[ErrorDimension] = []
    for pid in query.predicate_ids:
        pred = query.predicate(pid)
        if isinstance(pred, JoinPredicate):
            hi = join_dim_maximum(schema, pred)
            lo = hi / (10.0 ** _JOIN_CANDIDATE_DECADES)
            label = f"{pred.left_table}x{pred.right_table}"
        else:
            lo, hi = _SELECTION_CANDIDATE_RANGE
            label = f"{pred.table}.{pred.column}"
        dims.append(ErrorDimension(pid=pid, lo=lo, hi=hi, label=label))
    return dims


def measure_error_sensitivity(
    optimizer: Optimizer,
    query: Query,
    candidates: Sequence[ErrorDimension],
    base_assignment: Mapping[str, float],
    resolution: int = 4,
) -> List[SensitivityScore]:
    """Score each candidate by the damage a selectivity error could do.

    For every candidate dimension in isolation: sweep ``resolution``
    log-spaced selectivities across its range while the rest of the
    assignment stays at ``base_assignment``; at each point, cost the plan
    that was optimal at the *base* assignment (the plan a native
    optimizer trusting its estimate would run) and divide by the true
    optimal cost there.  The maximum of that ratio is the candidate's
    penalty.  Results come back sorted most-sensitive-first by
    :attr:`SensitivityScore.key`.
    """
    if resolution < 2:
        raise EssError("sensitivity ranking needs at least 2 points per dim")
    # The base point, then every candidate's sweep (``resolution``
    # log-spaced points of its range, the rest of the assignment at the
    # base), optimized as one slab (same order — hence the same plan ids
    # — as one call per probe); the base plan is costed over the same
    # columns in one context.
    points = [dict(base_assignment)]
    for dim in candidates:
        for i in range(resolution):
            point = dict(base_assignment)
            point[dim.pid] = dim.lo * (dim.hi / dim.lo) ** (i / (resolution - 1))
            points.append(point)
    columns, length = stack_assignments(points)
    choice, _ = optimizer.optimize_slab(query, columns, length)
    base_plan = choice.plans[choice.winner[0]]
    ctx = CostContext.for_slab(optimizer.schema, optimizer.cost_model, columns)
    frozen = np.broadcast_to(base_plan.estimate(ctx).cost, (length,)).tolist()
    optimal = choice.cost.tolist()
    scores: List[SensitivityScore] = []
    point = 1
    for dim in candidates:
        penalty = 1.0
        costs = optimal[point : point + resolution]
        for frozen_cost, optimal_cost in zip(frozen[point : point + resolution], costs):
            penalty = max(penalty, frozen_cost / max(optimal_cost, 1e-300))
        point += resolution
        scores.append(
            SensitivityScore(
                dimension=dim,
                penalty=penalty,
                cost_span=max(costs) / max(min(costs), 1e-300),
            )
        )
    scores.sort(key=lambda score: score.key)
    return scores


def sensitivity_error_dimensions(
    optimizer: Optimizer,
    query: Query,
    base_assignment: Mapping[str, float],
    candidates: Optional[Sequence[ErrorDimension]] = None,
    max_dims: int = 3,
    min_penalty: float = 1.05,
    resolution: int = 4,
) -> Tuple[List[ErrorDimension], List[SensitivityScore]]:
    """Pick the ESS dimensions of ``query`` by error-sensitivity ranking.

    The automatic replacement for Table 2's hand-picked dimension lists:
    candidates default to *every* predicate
    (:func:`candidate_error_dimensions`), each is scored by
    :func:`measure_error_sensitivity`, and the top ``max_dims`` whose
    penalty reaches ``min_penalty`` are kept.  At least one dimension is
    always returned (the highest-penalty candidate) so the ESS never
    degenerates.  Returns ``(chosen, all_scores)`` with ``all_scores``
    sorted most-sensitive-first.
    """
    if max_dims < 1:
        raise EssError("sensitivity selection needs max_dims >= 1")
    if candidates is None:
        candidates = candidate_error_dimensions(query)
    if not candidates:
        raise EssError("no candidate dimensions to rank")
    scores = measure_error_sensitivity(
        optimizer, query, candidates, base_assignment, resolution
    )
    chosen = [s.dimension for s in scores[:max_dims] if s.penalty >= min_penalty]
    if not chosen:
        chosen = [scores[0].dimension]
    return chosen, scores


@dataclass
class DimensioningResult:
    """The chosen ESS axes for one query, with full provenance."""

    dimensions: List[ErrorDimension]
    scores: List[SensitivityScore]
    base_assignment: Dict[str, float]

    @property
    def pids(self) -> List[str]:
        return [dim.pid for dim in self.dimensions]

    def to_dict(self) -> Dict[str, object]:
        return {
            "dimensions": self.pids,
            "scores": [
                {
                    "pid": score.dimension.pid,
                    "penalty": score.penalty,
                    "cost_span": score.cost_span,
                }
                for score in self.scores
            ],
            "base_assignment": dict(sorted(self.base_assignment.items())),
        }


def dimension_query(
    optimizer: Optimizer,
    query: Query,
    database: Database,
    max_dims: int = 3,
    min_penalty: float = 1.05,
    resolution: int = 4,
    base_assignment: Optional[Mapping[str, float]] = None,
) -> DimensioningResult:
    """Choose ESS dimensions for one generated query.

    A generated query has no curated dimension list, so the campaign
    discovers one: :func:`sensitivity_error_dimensions` ranks every
    predicate and keeps the top few.  The base assignment defaults to
    the query's *actual* selectivities on ``database`` — the campaign
    knows ground truth, so sensitivity is measured around the point the
    executed query will actually occupy.
    """
    if base_assignment is None:
        base_assignment = actual_selectivities(query, database)
    dimensions, scores = sensitivity_error_dimensions(
        optimizer,
        query,
        base_assignment,
        max_dims=max_dims,
        min_penalty=min_penalty,
        resolution=resolution,
    )
    return DimensioningResult(
        dimensions=dimensions,
        scores=scores,
        base_assignment=dict(base_assignment),
    )
