"""Rebinding a compiled bouquet onto a new instance of its template.

The compile is a pure function of (query structure, error dimensions,
base assignment, grid, cost model).  Two instances of one template share
everything but the predicate constants, and constants reach the compile
through exactly two doors: the pid *strings* embedded in plans and
spaces, and the base-assignment *selectivities* of non-dimension
predicates.  So a rebind is:

1. **Check the space first.**  The template's space — dimensions,
   grid and base assignment — is re-expressed over the instance's pids
   (:meth:`~repro.template.signature.TemplateSignature.pid_map_to`) and
   compared with the space a compile of the instance would plan
   (:func:`repro.drift.refresh.carried_space`), before any plan is
   touched.
2. **Remap the skeleton and carry it over.**  Translate the template
   artifact's tables and plan trees slot-for-slot onto the instance,
   preserving plan ids, and rebind the result to the instance's space
   (:func:`repro.drift.refresh.rebuilt_on`).  When the constants moved
   only on error-dimension predicates (the paper's parametric-workload
   regime: the grid overrides those selectivities anyway) the remapped
   bouquet is what a compile of the instance builds — **zero optimizer
   calls**.
3. **Fall back loudly.**  Anything that breaks the isomorphism — the
   instance classifies different error dimensions, the grid differs, a
   non-dimension constant moved its base selectivity (``"base-moved"``),
   or renamed relations are not statistically interchangeable — raises
   :class:`~repro.exceptions.TemplateError` with a stable ``reason``;
   callers run a full compile and count ``template.fallbacks``.
   Correctness never depends on the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..core.bouquet import PlanBouquet
from ..core.contours import Contour
from ..ess.diagram import PlanDiagram
from ..ess.space import ErrorDimension, SelectivitySpace
from ..exceptions import DriftError, TemplateError
from ..obs.tracer import NULL_TRACER, Tracer
from ..optimizer.optimizer import PlanRegistry
from ..optimizer.plans import (
    Aggregate,
    IndexLookup,
    IndexScan,
    Join,
    PlanNode,
    SeqScan,
)
from ..query.query import Query
from .signature import TemplateSignature, template_signature

__all__ = [
    "RebindOutcome",
    "rebind_compiled",
    "remap_plan",
]


@dataclass
class RebindOutcome:
    """A rebound artifact."""

    compiled: "object"  # repro.api.CompiledBouquet


def remap_plan(
    plan: PlanNode,
    table_map: Mapping[str, str],
    pid_map: Mapping[str, str],
) -> PlanNode:
    """Translate a plan tree slot-for-slot onto another template instance.

    Table names go through ``table_map``, predicate pids through
    ``pid_map``; column names are structural (equal across instances by
    signature construction) and pass through unchanged.
    """

    def _t(table: str) -> str:
        return table_map.get(table, table)

    def _p(pid: str) -> str:
        return pid_map.get(pid, pid)

    if isinstance(plan, SeqScan):
        return SeqScan(_t(plan.table), tuple(_p(p) for p in plan.filter_pids))
    if isinstance(plan, IndexScan):
        return IndexScan(
            _t(plan.table),
            _p(plan.index_pid),
            tuple(_p(p) for p in plan.filter_pids),
        )
    if isinstance(plan, IndexLookup):
        return IndexLookup(
            _t(plan.table),
            plan.lookup_column,
            tuple(_p(p) for p in plan.filter_pids),
        )
    if isinstance(plan, Join):
        return Join(
            plan.algo,
            remap_plan(plan.left, table_map, pid_map),
            remap_plan(plan.right, table_map, pid_map),
            tuple(_p(p) for p in plan.join_pids),
        )
    if isinstance(plan, Aggregate):
        return Aggregate(
            remap_plan(plan.child, table_map, pid_map),
            tuple((_t(t), c) for t, c in plan.group_columns),
        )
    raise TemplateError(
        f"cannot remap plan node {plan.signature()}", reason="unknown-node"
    )


def _tables_interchangeable(catalog, a: str, b: str) -> bool:
    """True when relation ``b`` is a drop-in replacement for ``a``.

    Every input the cost model and estimator consult must agree: row
    count, page count, primary key, per-column dtype/distinct hints,
    index availability, and the full column statistics.  Template
    signatures already guarantee the *structural* match (same column
    names in the predicates); this guards the numeric world view, which
    the signature deliberately does not hash.
    """
    schema = catalog.schema
    ta, tb = schema.table(a), schema.table(b)
    if ta.row_count != tb.row_count or ta.pages != tb.pages:
        return False
    if ta.primary_key != tb.primary_key:
        return False
    cols_a = {c.name: c for c in ta.columns}
    cols_b = {c.name: c for c in tb.columns}
    if set(cols_a) != set(cols_b):
        return False
    for name, col in cols_a.items():
        peer = cols_b[name]
        if col.dtype != peer.dtype or col.distinct != peer.distinct:
            return False
        if schema.has_index(a, name) != schema.has_index(b, name):
            return False
    stats = catalog.statistics
    if stats is not None:
        sa, sb = stats.table(a), stats.table(b)
        if (sa is None) != (sb is None):
            return False
        if sa is not None:
            if sa.row_count != sb.row_count:
                return False
            if sa.column_names != sb.column_names:
                return False
            for name in sa.column_names:
                ca, cb = sa.column(name), sb.column(name)
                if (
                    ca.min_value != cb.min_value
                    or ca.max_value != cb.max_value
                    or ca.n_distinct != cb.n_distinct
                    or ca.null_fraction != cb.null_fraction
                    or ca.histogram_bounds != cb.histogram_bounds
                    or ca.mcv_values != cb.mcv_values
                    or ca.mcv_fractions != cb.mcv_fractions
                ):
                    return False
    return True


def _remapped_space(
    template_space: SelectivitySpace, query: Query, pid_map: Mapping[str, str]
) -> SelectivitySpace:
    """The template's space (dimensions, grid and base assignment)
    re-expressed over the instance query's pids."""
    return SelectivitySpace(
        query,
        [
            ErrorDimension(pid_map.get(d.pid, d.pid), d.lo, d.hi, d.label)
            for d in template_space.dimensions
        ],
        list(template_space.shape),
        {pid_map.get(pid, pid): value for pid, value in template_space.base_assignment.items()},
    )


def _remapped_bouquet(
    template_bouquet: PlanBouquet,
    space: SelectivitySpace,
    table_map: Mapping[str, str],
    pid_map: Mapping[str, str],
) -> PlanBouquet:
    """The template's bouquet re-expressed over the instance query, on
    ``space`` (:func:`_remapped_space`) with its plans' pids remapped.

    Plan ids are preserved: the template registry's ids are contiguous
    first-registration order, so re-registering the remapped plans in id
    order reproduces them exactly — the grid arrays, contours, and
    budgets carry over untouched.
    """
    registry = PlanRegistry()
    for plan_id in template_bouquet.registry.plan_ids:
        new_id, _ = registry.register(
            remap_plan(template_bouquet.registry.plan(plan_id), table_map, pid_map)
        )
        if new_id != plan_id:
            # Two template plans collapsing onto one signature after the
            # remap would silently merge diagram cells; refuse instead.
            raise TemplateError(
                f"plan id {plan_id} remapped onto existing id {new_id}",
                reason="plan-collision",
            )
    # No cost cache: the carry-over builds one over the instance's own
    # space, and a deserialized template artifact may not carry one.
    diagram = PlanDiagram(
        space,
        template_bouquet.diagram.plan_ids,
        template_bouquet.diagram.costs,
        registry,
        cache=None,
    )
    contours = [
        Contour(
            index=c.index,
            cost=c.cost,
            locations=list(c.locations),
            plan_at=dict(c.plan_at),
        )
        for c in template_bouquet.contours
    ]
    return PlanBouquet(
        space=space,
        diagram=diagram,
        registry=registry,
        contours=contours,
        budgets=list(template_bouquet.budgets),
        plan_ids=list(template_bouquet.plan_ids),
        lambda_=template_bouquet.lambda_,
        ratio=template_bouquet.ratio,
    )


def rebind_compiled(
    template_compiled,
    template_sig: TemplateSignature,
    query: Query,
    catalog,
    *,
    instance_sig: Optional[TemplateSignature] = None,
    sql: Optional[str] = None,
    tracer: Optional[Tracer] = None,
) -> RebindOutcome:
    """Rebind ``template_compiled`` onto ``query`` (a new instance of the
    same template) — see the module docstring for the pass structure.

    Raises :class:`~repro.exceptions.TemplateError` whenever the rebound
    artifact would not be what a compile of ``query`` builds; the caller
    then falls back to a full compile and records ``exc.reason``.
    """
    from ..api import CompiledBouquet
    from ..drift.refresh import carried_space, rebuilt_on

    tracer = tracer if tracer is not None else NULL_TRACER
    if instance_sig is None:
        instance_sig = template_signature(query, catalog.schema, catalog.statistics)
    if instance_sig.digest != template_sig.digest:
        raise TemplateError(
            "query is not an instance of the cached template",
            reason="template-mismatch",
        )
    table_map: Dict[str, str] = template_sig.table_map_to(instance_sig)
    pid_map: Dict[str, str] = template_sig.pid_map_to(instance_sig)
    for old, new in table_map.items():
        if old != new and not _tables_interchangeable(catalog, old, new):
            raise TemplateError(
                f"renamed relation {old!r} -> {new!r} is not statistically "
                "interchangeable",
                reason="renamed-relation",
            )

    config = template_compiled.config
    template_bouquet = template_compiled.bouquet
    with tracer.span(
        "template.rebind", query=query.name, template=template_sig.digest
    ):
        # The carry-over's check reads only the space: refuse before
        # any plan is remapped.
        space = _remapped_space(template_bouquet.space, query, pid_map)
        try:
            new_space, optimizer = carried_space(space, query, catalog, config, tracer)
        except DriftError as exc:
            raise TemplateError(str(exc), reason=exc.reason) from exc
        carried = _remapped_bouquet(template_bouquet, space, table_map, pid_map)
        bouquet = rebuilt_on(carried, new_space, optimizer, config)
    compiled = CompiledBouquet(query=query, bouquet=bouquet, config=config, sql=sql)
    return RebindOutcome(compiled=compiled)
