"""Delta-driven bouquet refresh: re-plan only drift-suspect ESS regions.

A compiled bouquet is a pure function of (query, error dimensions, base
assignment, grid, cost model): statistics enter only through the base
assignment and the dimension selection.  So when a statistics refresh
leaves both unchanged the old artifact is *content-identical* to what a
recompile would produce and can be rebound to the new fingerprint with
zero optimizer work; and when only a few base selectivities moved, most
of the plan diagram survives — the plan that won a location under the
old base usually still wins under the new one.

:func:`delta_refresh` exploits that structure:

1. **Re-cost the incumbent frontier.**  Every plan in the old diagram's
   POSP set is re-costed over the whole new space in one vectorized pass
   per plan (:class:`~repro.ess.diagram.PlanCostCache`), giving the
   candidate argmin/cost field under the new base.
2. **Probe for newcomers.**  A coarse subgrid is planned with the
   authoritative DP slab kernel (``optimize_batch``); any plan it finds
   outside the incumbent set joins the candidate stack.
3. **Diff the frontier.**  A location is *suspect* when its candidate
   argmin differs from the old winner or when two candidates tie there.
   Ties are always suspect: the DP breaks them by an enumeration order
   that threads through *subplan* costs, so even an unchanged tied set
   can resolve differently under the new statistics.
4. **Re-plan the suspects, then chase newcomers to a fixpoint.**  The
   suspect set is sent through ``optimize_batch`` as one slab — the DP
   is authoritative wherever it ran.  Any plan the DP discovers that the
   candidate stack had never seen is then re-costed over the *whole*
   space; every kept location it beats or ties is re-planned in turn,
   until a sweep discovers nothing new.  Everywhere else the incumbent
   plan and its vectorized cost stand.
5. **Renumber canonically.**  The patched diagram's plans are re-registered
   into a fresh registry in row-major first-occurrence order — exactly the
   ids a from-scratch batch compile assigns — then contours and budgets are
   rebuilt by the ordinary :func:`~repro.core.bouquet.identify_bouquet`.

The full recompile stays available as the *reference* engine; the
equivalence tests (``tests/drift/test_refresh.py``) run both and
require bit-identical plan ids, costs, and contour bands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.bouquet import PlanBouquet, identify_bouquet
from ..ess.diagram import PlanCostCache, PlanDiagram, coarse_subgrid
from ..ess.space import SelectivitySpace
from ..exceptions import DriftError
from ..optimizer.optimizer import Optimizer, PlanRegistry
from .delta import statistics_delta

__all__ = [
    "DeltaRefreshResult",
    "PatchOutcome",
    "bouquets_equal",
    "delta_refresh",
    "moved_base_pids",
    "patch_compiled",
]


@dataclass
class DeltaRefreshResult:
    """Outcome of one delta refresh.

    ``strategy`` is ``"identity"`` when nothing the compile can observe
    moved (the artifact was rebound as-is, zero optimizer work) or
    ``"delta"`` when suspect regions were re-planned.
    ``planned_locations`` counts every location that went through the DP
    (probes + suspects) — the quantity a full recompile would spend
    ``total_locations`` on.
    """

    bouquet: PlanBouquet
    strategy: str
    moved_pids: Tuple[str, ...]
    total_locations: int
    planned_locations: int = 0
    suspect_locations: int = 0
    changed_plan_locations: int = 0

    @property
    def planned_fraction(self) -> float:
        return self.planned_locations / max(1, self.total_locations)

    def describe(self) -> str:
        return (
            f"delta refresh [{self.strategy}]: planned "
            f"{self.planned_locations}/{self.total_locations} locations "
            f"({self.planned_fraction:.1%}), {self.suspect_locations} suspect, "
            f"{self.changed_plan_locations} plan changes, moved pids: "
            f"{', '.join(self.moved_pids) or 'none'}"
        )


def _check_compatible(
    old_space: SelectivitySpace, new_space: SelectivitySpace
) -> None:
    old_dims = tuple((d.pid, d.lo, d.hi) for d in old_space.dimensions)
    new_dims = tuple((d.pid, d.lo, d.hi) for d in new_space.dimensions)
    if old_dims != new_dims:
        raise DriftError(
            "delta refresh needs identical error dimensions; "
            f"old {old_dims} != new {new_dims}"
        )
    if old_space.shape != new_space.shape:
        raise DriftError(
            "delta refresh needs an unchanged grid shape; "
            f"old {old_space.shape} != new {new_space.shape}"
        )


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


#: Probe locations per dimension of the coarse subgrid that pass 2 plans
#: with the DP to catch plans outside the incumbent set.
PROBES_PER_DIM = 3


def delta_refresh(
    old_bouquet: PlanBouquet,
    optimizer: Optimizer,
    new_space: SelectivitySpace,
    *,
    lambda_: Optional[float] = None,
    ratio: Optional[float] = None,
    max_probe_divergence: Optional[float] = None,
    max_suspect_fraction: Optional[float] = None,
) -> DeltaRefreshResult:
    """Refresh ``old_bouquet`` onto ``new_space``, re-planning only the
    drift-suspect locations (see the module docstring for the pass
    structure).

    ``optimizer`` must be built over the *new* statistics; ``new_space``
    must share the old space's dimensions and shape (raises
    :class:`~repro.exceptions.DriftError` otherwise — callers fall back
    to a full recompile).

    ``max_probe_divergence`` and ``max_suspect_fraction`` bound how far
    the carried artifact may drift before the delta path gives up: the
    first caps the relative gap between the incumbent POSP's best cost
    and the DP optimum at the probe locations, the second caps the
    fraction of the grid the frontier diff marks suspect.  Exceeding
    either raises :class:`~repro.exceptions.DriftError` — used by the
    template-cache rebind, which prefers a clean full compile over a
    delta pass that would re-plan most of the grid anyway.  ``None``
    (the default) disables the bound.
    """
    old_space = old_bouquet.space
    _check_compatible(old_space, new_space)
    query = new_space.query
    lambda_ = old_bouquet.lambda_ if lambda_ is None else float(lambda_)
    ratio = old_bouquet.ratio if ratio is None else float(ratio)
    moved = moved_base_pids(old_space, new_space)
    tracer = optimizer.tracer

    if not moved:
        # Nothing the compile can observe changed: the old diagram is
        # content-identical to a from-scratch rebuild.  Rebind it to the
        # new space (new base assignment, new optimizer) without a single
        # optimizer call.
        with tracer.span("drift.refresh", strategy="identity"):
            registry = old_bouquet.registry
            cache = PlanCostCache(new_space, optimizer, registry)
            diagram = PlanDiagram(
                new_space,
                old_bouquet.diagram.plan_ids,
                old_bouquet.diagram.costs,
                registry,
                cache,
            )
            if lambda_ == old_bouquet.lambda_ and ratio == old_bouquet.ratio:
                bouquet = PlanBouquet(
                    space=new_space,
                    diagram=diagram,
                    registry=registry,
                    contours=list(old_bouquet.contours),
                    budgets=list(old_bouquet.budgets),
                    plan_ids=list(old_bouquet.plan_ids),
                    lambda_=lambda_,
                    ratio=ratio,
                )
            else:
                bouquet = identify_bouquet(diagram, lambda_=lambda_, ratio=ratio)
        return DeltaRefreshResult(
            bouquet=bouquet,
            strategy="identity",
            moved_pids=(),
            total_locations=new_space.size,
        )

    with tracer.span(
        "drift.refresh", strategy="delta", moved=len(moved)
    ) as span:
        # Pass 1: carry the incumbent POSP over and re-cost it under the
        # new base in one vectorized sweep per plan.
        registry = optimizer.registry(query)
        old_ids = old_bouquet.diagram.posp_plan_ids
        wid_of = {}
        candidates: List[int] = []
        known = set()
        for plan_id in old_ids:
            wid, _ = registry.register(old_bouquet.registry.plan(plan_id))
            wid_of[plan_id] = wid
            if wid not in known:
                known.add(wid)
                candidates.append(wid)
        n_incumbent = len(candidates)
        lut = np.zeros(max(old_ids) + 1, dtype=np.int64)
        for plan_id, wid in wid_of.items():
            lut[plan_id] = wid
        old_wid = lut[old_bouquet.diagram.plan_ids]

        # Pass 2: authoritative probes on a coarse subgrid to catch plans
        # outside the incumbent set.
        probe_locs = coarse_subgrid(new_space, per_dim=PROBES_PER_DIM)
        probe_results = optimizer.optimize_batch(
            query, [new_space.assignment_at(loc) for loc in probe_locs]
        )
        probe_plan = {}
        for loc, result in zip(probe_locs, probe_results):
            probe_plan[loc] = (int(result.plan_id), float(result.cost))
            if result.plan_id not in known:
                known.add(result.plan_id)
                candidates.append(result.plan_id)

        cache = PlanCostCache(new_space, optimizer, registry)
        fields = cache.cost_arrays(candidates)
        stacked = np.stack([fields[wid] for wid in candidates])
        min_cost = np.min(stacked, axis=0)
        winner = np.array(candidates, dtype=np.int64)[np.argmin(stacked, axis=0)]
        ties = (stacked == min_cost).sum(axis=0) > 1

        if max_probe_divergence is not None:
            # How stale is the carried POSP?  At every probe the DP cost
            # is ground truth; compare it against the best the *incumbent*
            # plans (the first n_incumbent candidate rows — probe
            # newcomers were appended after them) can do there.
            incumbent_min = np.min(stacked[:n_incumbent], axis=0)
            worst = 0.0
            for loc, (_wid, dp_cost) in probe_plan.items():
                gap = (float(incumbent_min[loc]) - dp_cost) / max(dp_cost, 1e-300)
                worst = max(worst, gap)
            if worst > max_probe_divergence:
                raise DriftError(
                    f"carried plans diverge {worst:.1%} from the DP optimum "
                    f"at the probes (tolerance {max_probe_divergence:.1%})"
                )

        # Pass 3: frontier diff (ties always suspect).
        suspect = (winner != old_wid) | ties
        if max_suspect_fraction is not None:
            fraction = float(suspect.sum()) / float(suspect.size)
            if fraction > max_suspect_fraction:
                raise DriftError(
                    f"{fraction:.1%} of the grid is drift-suspect "
                    f"(tolerance {max_suspect_fraction:.1%}); a full "
                    "compile is cheaper than the delta pass"
                )

        # Pass 4: DP slabs over the suspects (probes already planned),
        # then chase DP-discovered newcomers to a fixpoint: a plan the
        # candidate stack never saw may beat or tie a kept location, so
        # its vectorized cost sweep decides where else the DP must run.
        plan_wid = old_wid.copy()
        costs = min_cost.copy()
        for loc, (wid, cost) in probe_plan.items():
            plan_wid[loc] = wid
            costs[loc] = cost
        dp_done = set(probe_plan)
        replan_locs = [
            loc
            for loc in new_space.locations()
            if suspect[loc] and loc not in dp_done
        ]
        planned = len(probe_plan)
        while replan_locs:
            planned += len(replan_locs)
            replan_results = optimizer.optimize_batch(
                query, [new_space.assignment_at(loc) for loc in replan_locs]
            )
            dp_done.update(replan_locs)
            newcomers = []
            for loc, result in zip(replan_locs, replan_results):
                plan_wid[loc] = result.plan_id
                costs[loc] = float(result.cost)
                if result.plan_id not in known:
                    known.add(result.plan_id)
                    candidates.append(result.plan_id)
                    newcomers.append(result.plan_id)
            if not newcomers:
                break
            threat = np.zeros(new_space.shape, dtype=bool)
            for field in cache.cost_arrays(newcomers).values():
                threat |= field <= costs
            replan_locs = [
                loc
                for loc in new_space.locations()
                if threat[loc] and loc not in dp_done
            ]
        changed = int(np.count_nonzero(plan_wid != old_wid))

        # Pass 5: canonical renumbering — fresh registry, ids assigned in
        # row-major first-occurrence order, matching a from-scratch batch
        # compile bit for bit.
        final_registry = PlanRegistry()
        final_ids = np.empty(new_space.shape, dtype=np.int64)
        remap = {}
        for loc in new_space.locations():
            wid = int(plan_wid[loc])
            fid = remap.get(wid)
            if fid is None:
                fid, _ = final_registry.register(registry.plan(wid))
                remap[wid] = fid
            final_ids[loc] = fid
        final_cache = PlanCostCache(new_space, optimizer, final_registry)
        diagram = PlanDiagram(new_space, final_ids, costs, final_registry, final_cache)
        bouquet = identify_bouquet(diagram, lambda_=lambda_, ratio=ratio)
        span.set(
            planned=planned,
            suspect=int(suspect.sum()),
            changed=changed,
            total=new_space.size,
        )
    return DeltaRefreshResult(
        bouquet=bouquet,
        strategy="delta",
        moved_pids=tuple(moved),
        total_locations=new_space.size,
        planned_locations=planned,
        suspect_locations=int(suspect.sum()),
        changed_plan_locations=changed,
    )


# ---------------------------------------------------------------------------
# Artifact patching (the serving layer's entry point)
# ---------------------------------------------------------------------------


@dataclass
class PatchOutcome:
    """A patched compile artifact plus the refresh that produced it."""

    compiled: "object"  # repro.api.CompiledBouquet
    result: DeltaRefreshResult


def patch_compiled(
    compiled,
    catalog,
    *,
    old_statistics=None,
    tracer=None,
) -> PatchOutcome:
    """Patch a cached :class:`~repro.api.CompiledBouquet` onto the
    catalog's *current* statistics.

    Recomputes the inputs a fresh compile would derive from the new
    statistics (error dimensions, base assignment) and raises
    :class:`~repro.exceptions.DriftError` whenever any of them makes the
    artifact un-patchable — different dimensions, a different grid, or a
    moved base on a grid too large for the exhaustive diagram.  Callers
    (``BouquetServer.refresh_statistics``) treat that as "fall back to
    invalidation".
    """
    from ..api import (
        CompiledBouquet,
        EXHAUSTIVE_LIMIT,
        default_error_dimensions,
    )
    from ..optimizer.selectivity import actual_selectivities

    query = compiled.query
    config = compiled.config
    old_space = compiled.space
    optimizer = catalog.optimizer(config, tracer=tracer)
    dims = default_error_dimensions(query, catalog.schema, catalog.statistics)
    old_dims = tuple((d.pid, d.lo, d.hi) for d in old_space.dimensions)
    if tuple((d.pid, d.lo, d.hi) for d in dims) != old_dims:
        raise DriftError(
            "statistics drift changed the error dimensions; "
            "the artifact must be recompiled"
        )
    resolution = config.resolution_for(len(dims))
    if tuple([resolution] * len(dims)) != old_space.shape:
        raise DriftError("artifact grid does not match the config resolution")
    if catalog.database is not None:
        base = actual_selectivities(query, catalog.database)
    else:
        base = optimizer.estimated_assignment(query)
    new_space = SelectivitySpace(query, old_space.dimensions, list(old_space.shape), base)
    if moved_base_pids(old_space, new_space) and new_space.size > EXHAUSTIVE_LIMIT:
        raise DriftError(
            "ESS too large for the exhaustive patch path; recompile instead"
        )
    result = delta_refresh(
        compiled.bouquet,
        optimizer,
        new_space,
        lambda_=config.lambda_,
        ratio=config.ratio,
    )
    if old_statistics is not None and tracer is not None and tracer.enabled:
        delta = statistics_delta(old_statistics, catalog.statistics)
        tracer.event(
            "drift.patch",
            query=query.name,
            strategy=result.strategy,
            drifted_tables=",".join(delta.drifted_tables),
            planned=result.planned_locations,
        )
    patched = CompiledBouquet(
        query=query, bouquet=result.bouquet, config=config, sql=compiled.sql
    )
    return PatchOutcome(compiled=patched, result=result)


# ---------------------------------------------------------------------------
# Equivalence checking (delta path vs. the reference full recompile)
# ---------------------------------------------------------------------------


def bouquets_equal(patched: PlanBouquet, reference: PlanBouquet) -> List[str]:
    """Bit-for-bit comparison of two bouquets; returns mismatch strings
    (empty == identical).

    Plan ids are compared directly (both sides are canonically numbered),
    plans structurally (canonical signatures per id), costs bitwise, and
    contours/budgets exactly — the same bar the engine-equality tests
    hold the batch kernel to against the scalar reference.
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
