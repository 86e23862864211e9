"""Carrying a compiled bouquet over: identity or recompile.

A compiled bouquet is a pure function of (query, error dimensions, base
assignment, grid, cost model): statistics and predicate constants enter
only through the error dimensions and the base assignment, and the grid
overrides the base at every error-dimension pid.  So when a statistics
refresh (or a new instance of the artifact's query template) leaves the
dimensions and the grid unchanged and moves no *non-dimension* base
selectivity, the old artifact is content-identical to what a compile
would build now.  :func:`carry_over` rebinds it to the new space with
zero optimizer work, re-cutting contours only when λ or r differ.

When anything the compile sees has moved, :func:`carry_over` raises
:class:`~repro.exceptions.DriftError` and the caller recompiles.  There
is no re-plan of "suspect" locations: with the slab DP a compile of the
whole grid is cheaper than one was, and equal to itself by definition
(DESIGN decision 18 has the measurement).

:func:`patch_compiled` is the statistics-refresh front of the carry-over
(the template rebind, :mod:`repro.template.rebind`, is the other), and
:func:`bouquets_equal` is the bit-for-bit check of a carried artifact
against a fresh compile.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.bouquet import PlanBouquet, identify_bouquet
from ..ess.diagram import PlanCostCache, PlanDiagram
from ..ess.space import SelectivitySpace
from ..exceptions import DriftError
from ..query.query import Query

__all__ = [
    "bouquets_equal",
    "carry_over",
    "moved_base_pids",
    "patch_compiled",
]


def moved_base_pids(
    old_space: SelectivitySpace, new_space: SelectivitySpace
) -> List[str]:
    """Non-error pids whose base selectivity differs between the spaces.

    Error-dimension pids are excluded: the grid overrides them at every
    location, so their base value is invisible to the compile.
    """
    dims = {d.pid for d in new_space.dimensions}
    old_base = old_space.base_assignment
    new_base = new_space.base_assignment
    return [
        pid
        for pid in sorted(set(old_base) | set(new_base))
        if pid not in dims and old_base.get(pid) != new_base.get(pid)
    ]


def carry_over(
    bouquet: PlanBouquet, query: Query, catalog, config, tracer
) -> PlanBouquet:
    """The bouquet a compile of ``query`` under ``catalog`` and
    ``config`` would build, taken from ``bouquet`` without planning.

    ``bouquet`` must already be expressed over ``query`` (its pids).  The
    space a compile would plan is derived exactly as the compile derives
    it; when its error dimensions, its grid or a non-dimension base
    selectivity differ from ``bouquet.space``, the call raises
    :class:`~repro.exceptions.DriftError` (``reason``
    ``"dimension-mismatch"``, ``"grid-mismatch"`` or ``"base-moved"``)
    and the caller recompiles.
    """
    space, optimizer = carried_space(bouquet.space, query, catalog, config, tracer)
    return rebuilt_on(bouquet, space, optimizer, config)


def carried_space(old_space: SelectivitySpace, query: Query, catalog, config, tracer):
    """:func:`carry_over`'s check: the space a compile of ``query`` would
    plan, with the optimizer that would plan it, when it equals
    ``old_space`` in everything the compile sees; raises
    :class:`~repro.exceptions.DriftError` otherwise.  It reads only the
    space, so a caller can check before it builds anything else."""
    from ..api import _compile_space, default_error_dimensions

    dims = default_error_dimensions(query, catalog.schema, catalog.statistics)
    if [(d.pid, d.lo, d.hi) for d in dims] != [
        (d.pid, d.lo, d.hi) for d in old_space.dimensions
    ]:
        raise DriftError(
            "the error dimensions moved", reason="dimension-mismatch"
        )
    optimizer = catalog.optimizer(config, tracer=tracer)
    new_space = _compile_space(query, catalog, config, optimizer, dims, None)
    if new_space.shape != old_space.shape:
        raise DriftError(
            f"grid {old_space.shape} != the config's {new_space.shape}",
            reason="grid-mismatch",
        )
    moved = moved_base_pids(old_space, new_space)
    if moved:
        raise DriftError(
            f"base selectivities moved ({', '.join(moved)})",
            reason="base-moved",
        )
    return new_space, optimizer


def rebuilt_on(
    bouquet: PlanBouquet, space: SelectivitySpace, optimizer, config
) -> PlanBouquet:
    """:func:`carry_over`'s rebind: ``bouquet`` on ``space`` (which
    :func:`carried_space` found equal to its own), with zero optimizer
    work; contours are re-cut only when λ or r differ."""
    with optimizer.tracer.span("drift.refresh", query=space.query.name):
        registry = bouquet.registry
        diagram = PlanDiagram(
            space,
            bouquet.diagram.plan_ids,
            bouquet.diagram.costs,
            registry,
            PlanCostCache(space, optimizer, registry),
        )
        if (config.lambda_, config.ratio) != (bouquet.lambda_, bouquet.ratio):
            return identify_bouquet(
                diagram, lambda_=config.lambda_, ratio=config.ratio
            )
        return PlanBouquet(
            space=space,
            diagram=diagram,
            registry=registry,
            contours=list(bouquet.contours),
            budgets=list(bouquet.budgets),
            plan_ids=list(bouquet.plan_ids),
            lambda_=bouquet.lambda_,
            ratio=bouquet.ratio,
        )


def patch_compiled(compiled, catalog, *, tracer=None):
    """Carry a cached :class:`~repro.api.CompiledBouquet` over to the
    catalog's *current* statistics (:func:`carry_over`).

    Raises :class:`~repro.exceptions.DriftError` when the refresh moved
    anything the compile sees; ``BouquetServer.refresh_statistics``
    then lets the invalidation sweep drop the artifact.
    """
    from ..api import CompiledBouquet

    bouquet = carry_over(
        compiled.bouquet, compiled.query, catalog, compiled.config, tracer
    )
    return CompiledBouquet(
        query=compiled.query, bouquet=bouquet, config=compiled.config, sql=compiled.sql
    )


# ---------------------------------------------------------------------------
# Equivalence checking (a carried artifact vs. a fresh compile)
# ---------------------------------------------------------------------------


def bouquets_equal(patched: PlanBouquet, reference: PlanBouquet) -> List[str]:
    """Bit-for-bit comparison of two bouquets; returns mismatch strings
    (empty == identical).

    Plan ids are compared directly (both sides are canonically numbered),
    plans structurally (canonical signatures per id), costs bitwise, and
    contours/budgets exactly — the same bar the engine-equality tests
    hold the batch kernel to against the scalar DP.
    """
    problems: List[str] = []
    if patched.space.shape != reference.space.shape:
        return [f"shape {patched.space.shape} != {reference.space.shape}"]
    if not np.array_equal(patched.diagram.plan_ids, reference.diagram.plan_ids):
        diff = int(
            np.count_nonzero(patched.diagram.plan_ids != reference.diagram.plan_ids)
        )
        problems.append(f"plan ids differ at {diff} locations")
    if not np.array_equal(patched.diagram.costs, reference.diagram.costs):
        diff = int(np.count_nonzero(patched.diagram.costs != reference.diagram.costs))
        problems.append(f"costs differ (not bitwise equal) at {diff} locations")
    for plan_id in patched.diagram.posp_plan_ids:
        try:
            ref_plan = reference.registry.plan(plan_id)
        except Exception:
            problems.append(f"plan {plan_id} missing from reference registry")
            continue
        if (
            patched.registry.plan(plan_id).canonical_signature()
            != ref_plan.canonical_signature()
        ):
            problems.append(f"plan {plan_id} structure differs")
    if len(patched.contours) != len(reference.contours):
        problems.append(
            f"contour count {len(patched.contours)} != {len(reference.contours)}"
        )
    else:
        for ours, theirs in zip(patched.contours, reference.contours):
            if ours.cost != theirs.cost:
                problems.append(f"contour {ours.index} cost differs")
            if list(ours.locations) != list(theirs.locations):
                problems.append(f"contour {ours.index} locations differ")
            if ours.plan_at != theirs.plan_at:
                problems.append(f"contour {ours.index} plan assignment differs")
    if list(patched.budgets) != list(reference.budgets):
        problems.append("contour budgets differ")
    if list(patched.plan_ids) != list(reference.plan_ids):
        problems.append("bouquet plan-id sets differ")
    return problems
