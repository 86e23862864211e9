"""Shared fixtures: a small deterministic TPC-H world and a tiny Lab.

Everything is session-scoped — construction is deterministic, so sharing
artifacts across tests is safe and keeps the suite fast.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import settings

from repro.bench.harness import Lab
from repro.catalog import tpch_generator_spec, tpch_schema
from repro.core.runtime import (
    AbstractExecutionService,
    ExecutionOutcome,
    LearnedSelectivity,
    _geometric_interp,
)
from repro.datagen import Database
from repro.ess import ErrorDimension, PlanDiagram, SelectivitySpace
from repro.obs import MemorySink, Tracer
from repro.exceptions import OptimizerError, QueryError
from repro.optimizer import Optimizer, actual_selectivities
from repro.optimizer.joinorder import JoinEnumerator
from repro.optimizer.optimizer import OptimizedPlan
from repro.optimizer.plans import (
    Aggregate,
    CostContext,
    cost_plan,
    error_node_depth,
    first_error_node,
)
from repro.query import JoinPredicate, Query, SelectionPredicate
from repro.wlgen import CampaignConfig, GeneratorConfig, QueryGenerator, build_env, run_query

SCALE = 0.003

# Tier-1 is one fixed set of examples, not a draw: a property passes or
# fails by its code.  (An example worth keeping is pinned with
# ``@example`` in its test; there is no example database to replay.)
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

#: Range-only sampling: every selection becomes an error dimension, so
#: rebinding a template instance is an identity carry-over.
TEMPLATED_WORKLOAD_CONFIG = GeneratorConfig(
    min_joins=2,
    max_joins=2,
    min_predicates=2,
    max_predicates=2,
    equality_weight=0.0,
    range_weight=1.0,
    in_weight=0.0,
    groupby_probability=0.0,
    aggregate_probability=0.0,
)


def node_counters(result):
    """An engine execution's per-node account, in first-charge order:
    ``(signature, tuples out, cost, finished)``."""
    inst = result.instrumentation
    return [
        (inst._nodes[key].signature(), c.tuples_out, c.cost, c.finished)
        for key, c in inst._counters.items()
    ]


def validate_assignment(query, assignment):
    """Check an assignment covers every predicate of ``query`` exactly:
    :func:`scalar_optimize`'s input check (the slab kernel checks its
    columns itself, ``batchopt.kernel.validate_columns``)."""
    expected = set(query.predicate_ids)
    got = set(assignment)
    if expected - got:
        missing = ", ".join(sorted(expected - got))
        raise QueryError(f"assignment is missing selectivities for: {missing}")
    for pid, value in assignment.items():
        if not (0.0 < value <= 1.0):
            raise QueryError(f"selectivity for {pid!r} out of (0, 1]: {value}")


def scalar_optimize(optimizer, query, assignment):
    """The scalar DPsize the slab kernel replaced (it was
    ``JoinEnumerator.best_plan`` and ``Optimizer._best_single_table``):
    one cheapest ``(plan, cost, rows)`` per connected subset at one
    assignment, each candidate costed whole, the first candidate winning
    ties; the winner registered in ``optimizer``'s registry.  The oracle
    for ``Optimizer.optimize`` and every slab."""
    validate_assignment(query, assignment)
    schema, model = optimizer.schema, optimizer.cost_model
    ctx = CostContext(schema, model, assignment)
    enumerator = JoinEnumerator(query, schema)

    def cheapest(candidates):
        entry = None
        for plan in candidates:
            est = plan.estimate(ctx)
            if entry is None or est.cost < entry[1]:
                entry = (plan, est.cost, est.rows)
        return entry

    best = {
        frozenset((table,)): cheapest(enumerator.access_path_candidates(table))
        for table in enumerator.tables
    }
    for subset in enumerator.subsets:
        best[subset] = cheapest(
            plan
            for left_set, right_set, join_pids in enumerator.partitions[subset]
            if left_set in best and right_set in best
            for plan in enumerator.join_candidates(
                best[left_set][0], best[right_set][0],
                left_set, right_set, join_pids, model,
            )
        )
        if best[subset] is None:
            raise OptimizerError(f"no join plan found for subset {sorted(subset)}")
    plan, cost, rows = best[frozenset(enumerator.tables)]
    if query.aggregate:
        plan = Aggregate(plan, query.group_by)
        est = cost_plan(plan, schema, model, assignment)
        cost, rows = est.cost, est.rows
    plan_id, signature = optimizer.registry(query).register(plan)
    return OptimizedPlan(plan=plan, cost=cost, rows=rows, plan_id=plan_id, signature=signature)


def scalar_results(optimizer, space):
    """The paper's literal procedure — one scalar DP
    (:func:`scalar_optimize`) per location, row-major: the oracle for
    the slab kernel."""
    return [
        scalar_optimize(optimizer, space.query, space.assignment_at(location))
        for location in space.locations()
    ]


def scalar_diagram(optimizer, space):
    """:func:`scalar_results` as the exhaustive diagram: the oracle for
    ``PlanDiagram.exhaustive``."""
    results = scalar_results(optimizer, space)
    plan_ids = np.array([r.plan_id for r in results], dtype=np.int64)
    costs = np.array([r.cost for r in results], dtype=float)
    return PlanDiagram(
        space,
        plan_ids.reshape(space.shape),
        costs.reshape(space.shape),
        optimizer.registry(space.query),
    )


def sensitivity_by_definition(optimizer, query, candidates, base_assignment, resolution):
    """``measure_error_sensitivity`` point by point: at each probe of a
    candidate's sweep, the scalar DP's optimum and the base-optimal
    plan costed alone; ``(pid, penalty, cost_span)`` most-sensitive-first."""
    base_plan = scalar_optimize(optimizer, query, dict(base_assignment)).plan
    scores = []
    for dim in candidates:
        penalty, costs = 1.0, []
        for i in range(resolution):
            # ``resolution`` log-spaced points of the candidate's range.
            assignment = dict(base_assignment)
            assignment[dim.pid] = dim.lo * (dim.hi / dim.lo) ** (i / (resolution - 1))
            optimal = scalar_optimize(optimizer, query, assignment).cost
            frozen = cost_plan(base_plan, optimizer.schema, optimizer.cost_model, assignment)
            costs.append(optimal)
            penalty = max(penalty, frozen.cost / max(optimal, 1e-300))
        scores.append((dim.pid, penalty, max(costs) / max(min(costs), 1e-300)))
    return sorted(scores, key=lambda score: (-score[1], -score[2], score[0]))


def dominating_by_definition(bouquet, contour, qrun):
    """The resident plans owning a contour location that dominates
    ``q_run`` (within 1e-9), by bisecting each grid: the scalar
    definition of ``repro.core.runtime.dominating``."""
    first = [
        bisect_left(grid.tolist(), q * (1.0 - 1e-9))
        for grid, q in zip(bouquet.space.grids, qrun)
    ]
    return sorted({
        plan_id for loc, plan_id in contour.plan_at.items()
        if all(i >= f for i, f in zip(loc, first))
    })


def covering_location(contour, point):
    """The closest (L1, first in list order) contour location dominating
    grid ``point``, searched location by location."""
    best = best_distance = None
    for loc in contour.locations:
        if all(a >= b for a, b in zip(loc, point)):
            distance = sum(a - b for a, b in zip(loc, point))
            if best_distance is None or distance < best_distance:
                best, best_distance = loc, distance
    return best


def ray_end_by_walk(bouquet, contour, cell, d):
    """The last cell inside ``contour`` of the +d ray from grid ``cell``,
    walked cell by cell (None when ``cell`` is outside it)."""
    costs = bouquet.diagram.costs
    threshold = contour.cost * (1.0 + 1e-9)
    end = None
    for g in range(cell[d], costs.shape[d]):
        if costs[cell[:d] + (g,) + cell[d + 1:]] > threshold:
            break
        end = g
    return None if end is None else cell[:d] + (end,) + cell[d + 1:]


def axis_plans_by_definition(bouquet, contour, qrun, exact):
    """AxisPlans(q_run) by walking each +d ray from the snapped ``q_run``
    cell by cell and searching the contour for the location covering its
    end: ``{plan: error depth}``, a plan met on several axes keeping its
    deepest.  The scalar definition of ``repro.core.runtime.axis_plans``."""
    space = bouquet.space
    dims = space.dimensions
    snapped = tuple(
        min(int(np.searchsorted(grid, q * (1.0 - 1e-12), side="left")), grid.size - 1)
        for grid, q in zip(space.grids, qrun)
    )
    found = {}
    for d in range(len(dims)):
        if d in exact:
            continue
        end = ray_end_by_walk(bouquet, contour, snapped, d)
        owner = None if end is None else covering_location(contour, end)
        if owner is None:
            continue
        plan_id = contour.plan_at[owner]
        depth = error_node_depth(bouquet.registry.plan(plan_id), frozenset((dims[d].pid,)))
        if plan_id not in found or depth > found[plan_id]:
            found[plan_id] = depth
    return found


def pick_by_definition(candidates, cost):
    """The §5.1 pick over ``{plan: error depth}`` by sorting: the plans
    within 20% of the cheapest ``cost(plan)``, deepest error node first,
    then the cheaper, then the lower plan id."""
    cheapest = min(cost(pid) for pid in candidates)
    group = [pid for pid in candidates if cost(pid) <= cheapest * (1.0 + 0.2)]
    return min(group, key=lambda pid: (-candidates[pid], cost(pid), pid))


def anorexic_by_definition(diagram, locations=None, lambda_=0.2, candidate_ids=None):
    """The anorexic greedy by its literal per-candidate loop over whole-grid
    cost arrays (``PlanCostCache.cost_arrays``) gathered at ``locations``:
    every pass offers each plan not chosen yet, the largest gain wins,
    then the smaller total cost over the locations it would swallow, then
    the earlier candidate.  The oracle ``anorexic_reduce`` is held to.
    Returns ``(assignment, plan_ids, swallows)``, a swallow being
    ``(plan, locations swallowed)`` in pick order."""
    space = diagram.space
    if locations is None:
        locations = list(space.locations())
    if candidate_ids is None:
        candidate_ids = diagram.posp_plan_ids
    flat = np.ravel_multi_index(np.asarray(locations).T, space.shape)
    optimal = diagram.costs.ravel()[flat]
    arrays = diagram.cache.cost_arrays(candidate_ids)
    coverage, cost_rows = {}, {}
    for plan_id in candidate_ids:
        costs = arrays[plan_id].ravel()[flat]
        coverage[plan_id] = costs <= (1.0 + lambda_) * optimal + 1e-12
        cost_rows[plan_id] = costs
    uncovered = np.ones(len(locations), dtype=bool)
    owner = np.zeros(len(locations), dtype=np.int64)
    chosen, swallows = [], []
    while uncovered.any():
        best_plan, best_gain, best_cost = None, -1, np.inf
        for plan_id in candidate_ids:
            if plan_id in chosen:
                continue
            covered = coverage[plan_id] & uncovered
            gain = int(covered.sum())
            if gain == 0:
                continue
            total_cost = float(cost_rows[plan_id][covered].sum())
            if gain > best_gain or (gain == best_gain and total_cost < best_cost):
                best_plan, best_gain, best_cost = plan_id, gain, total_cost
        if best_plan is None:
            idx = int(np.argmax(uncovered))
            fallback = diagram.plan_at(locations[idx])
            owner[idx] = fallback
            if fallback not in chosen:
                chosen.append(fallback)
            uncovered[idx] = False
            continue
        chosen.append(best_plan)
        newly = coverage[best_plan] & uncovered
        swallows.append((best_plan, int(newly.sum())))
        owner[newly] = best_plan
        uncovered &= ~newly
    assignment = dict(zip(locations, owner.tolist()))
    return assignment, sorted(set(assignment.values())), swallows


def figure13_by_definition(bouquet, location):
    """One optimized bouquet run at grid ``location`` in the cost-model
    world, by the literal scalar Figure 13 (the definitions above, a
    sorted fallback, a min-cost endgame) — nothing shared with the
    decision functions of ``repro.core.runtime``, so it is the oracle
    both drivers are held to.  Returns ``(total_cost, executions)``, an
    execution being ``(contour index, plan, spilled, cost spent,
    completed)``."""
    space = bouquet.space
    dims = space.dimensions
    optimizer = bouquet.cost_cache.optimizer
    service = AbstractExecutionService(bouquet, space.selectivities_at(location))
    contexts = {}

    def cost_at(node, values):
        key = tuple(values)
        if key not in contexts:
            contexts[key] = CostContext(
                optimizer.schema, optimizer.cost_model, space.assignment_for(values)
            )
        return node.estimate(contexts[key]).cost

    def plan_cost(plan_id, values):
        return cost_at(bouquet.registry.plan(plan_id), values)

    qrun, exact = [dim.lo for dim in dims], set()
    total, executions = 0.0, []
    cid, attempted, exhausted = 0, set(), set()
    contours = bouquet.contours

    def charge(plan_id, outcome, spilled):
        nonlocal total
        total += outcome.cost_spent
        executions.append(
            (contours[cid].index, plan_id, spilled, outcome.cost_spent, outcome.completed)
        )
        return outcome.completed

    def cross():
        nonlocal cid
        cid += 1
        attempted.clear()
        exhausted.clear()

    while cid < len(contours):
        contour, budget = contours[cid], bouquet.budgets[cid]
        dominating = dominating_by_definition(bouquet, contour, qrun)
        if not dominating:
            cross()
            continue
        if len(exact) == len(dims):
            runnable = [pid for pid in dominating if pid not in exhausted]
            if runnable:
                plan_id = min(runnable, key=lambda pid: plan_cost(pid, qrun))
                if charge(plan_id, service.run_full(plan_id, budget), False):
                    return total, executions
            cross()
            continue
        unlearned = frozenset(dims[d].pid for d in range(len(dims)) if d not in exact)
        candidates = {
            pid: depth
            for pid, depth in axis_plans_by_definition(bouquet, contour, qrun, exact).items()
            if pid not in attempted
        }
        for pid in list(candidates):
            plan = bouquet.registry.plan(pid)
            if cost_at(first_error_node(plan, unlearned) or plan, qrun) >= budget * (1 - 1e-9):
                attempted.add(pid)
                exhausted.add(pid)
                del candidates[pid]
        if not candidates:
            ordered = sorted(
                (
                    pid for pid in dominating
                    if pid not in exhausted and plan_cost(pid, qrun) <= budget * (1 + 1e-9)
                ),
                key=lambda pid: plan_cost(pid, qrun),
            )
            for plan_id in ordered:
                exhausted.add(plan_id)
                if charge(plan_id, service.run_full(plan_id, budget), False):
                    return total, executions
            cross()
            continue
        choice = pick_by_definition(candidates, lambda pid: plan_cost(pid, qrun))
        outcome = service.run_spilled(choice, budget, unlearned)
        attempted.add(choice)
        if not outcome.completed and outcome.cost_spent >= budget * (1 - 1e-9):
            exhausted.add(choice)
        if charge(choice, outcome, True):
            return total, executions
        for learned in outcome.learned:
            d = [dim.pid for dim in dims].index(learned.pid)
            qrun[d] = max(qrun[d], min(learned.value, dims[d].hi))
            if learned.exact:
                exact.add(d)
        if min(plan_cost(pid, qrun) for pid in bouquet.plan_ids) >= budget and cid + 1 < len(contours):
            cross()
    raise AssertionError(f"no contour completed at {location}")


def reference_field(bouquet, locations=None):
    """Optimized-bouquet total cost per location by
    :func:`figure13_by_definition`: the oracle for the sweep engine and
    the runner."""
    if locations is None:
        locations = bouquet.space.locations()
    return {loc: figure13_by_definition(bouquet, loc)[0] for loc in locations}


def forty_halvings(cost, budget):
    """How far a spilled run gets, by the literal procedure: 40 halvings
    of ``[0, 1]`` on ``cost(t) <= budget`` (``cost(1)`` is over it).  The
    oracle for ``repro.core.runtime.reach_under_budget``, which finds the
    same point of the 2**-40 grid without making them."""
    lo_t, hi_t = 0.0, 1.0
    if cost(0.0) > budget:
        return 0.0
    for _ in range(40):
        mid = 0.5 * (lo_t + hi_t)
        if cost(mid) <= budget:
            lo_t = mid
        else:
            hi_t = mid
    return lo_t


def spilled_run_by_subtree_walk(bouquet, qa_values, plan_id, budget, unlearned):
    """One spilled execution in the cost-model world, by the literal
    scalar procedure: every probe of the 40-step bisection re-costs the
    whole spilled subtree with ``cost_plan``.  The oracle for
    ``repro.core.runtime.spill``, which searches on the spill node's own
    formula, on one row (``AbstractExecutionService.run_spilled``) or
    many (the sweep).  A target moves from its ``lo`` to the truth by
    ``spill``'s own arithmetic: numpy's ``**`` is not libm's to the last
    bit."""
    space = bouquet.space
    optimizer = bouquet.cost_cache.optimizer
    truth = space.assignment_for(qa_values)
    plan = bouquet.registry.plan(plan_id)

    def cost(node, assignment):
        return cost_plan(node, optimizer.schema, optimizer.cost_model, assignment).cost

    plan_cost = cost(plan, truth)
    node = first_error_node(plan, unlearned)
    if node is None:
        return ExecutionOutcome(plan_cost <= budget, min(plan_cost, budget))
    lows = {dim.pid: dim.lo for dim in space.dimensions}
    targets = sorted(node.local_pids & unlearned)

    def learned(t, exact):
        return [
            LearnedSelectivity(
                pid, float(_geometric_interp(lows[pid], truth[pid], np.array([t]))[0]), exact
            )
            for pid in targets
        ]

    def subtree_cost(t):
        return cost(node, {**truth, **{l.pid: l.value for l in learned(t, False)}})

    at_truth = [LearnedSelectivity(pid, truth[pid], True) for pid in targets]
    if plan_cost <= budget:
        return ExecutionOutcome(True, plan_cost, at_truth)
    if subtree_cost(1.0) <= budget:
        return ExecutionOutcome(False, budget, at_truth)
    return ExecutionOutcome(False, budget, learned(forty_halvings(subtree_cost, budget), False))


def optimizer_calls(tracer):
    """Scalar plus slab DP calls a tracer counted: a carry-over must make
    none."""
    counters = tracer.counters
    return counters.get("optimizer.calls", 0) + counters.get("optimizer.batch_calls", 0)


def campaign_pool_counters(queries=31):
    """What a traced pass over the ledger's ``eval_campaign`` pool counts
    (the first ``queries`` TPC-DS queries of pool seed 42, ``CampaignConfig``'s
    defaults being the ledger's constants), every verdict ``ok``."""
    config = CampaignConfig(benchmark="tpcds", count=queries)
    tracer = Tracer(MemorySink())
    world = build_env(config, tracer=tracer)
    for index in range(queries):
        outcome = run_query(world, config, index)
        assert outcome.status == "ok", outcome.error
    return tracer.counters


@pytest.fixture(scope="session")
def schema():
    return tpch_schema(SCALE)


@pytest.fixture(scope="session")
def database(schema):
    return Database.generate(schema, tpch_generator_spec(SCALE), seed=7)


@pytest.fixture(scope="session")
def statistics(database):
    return database.build_statistics(sample_size=1500, seed=3)


@pytest.fixture(scope="session")
def templated_generator(schema, database):
    return QueryGenerator(schema, database, TEMPLATED_WORKLOAD_CONFIG)


@pytest.fixture(scope="session")
def optimizer(schema, statistics):
    return Optimizer(schema, statistics)


@pytest.fixture(scope="session")
def eq_query(schema):
    return Query(
        "EQ",
        schema,
        ["lineitem", "orders", "part"],
        selections=[SelectionPredicate("part", "p_retailprice", "<", 1000.0)],
        joins=[
            JoinPredicate("part", "p_partkey", "lineitem", "l_partkey"),
            JoinPredicate("lineitem", "l_orderkey", "orders", "o_orderkey"),
        ],
    )


@pytest.fixture(scope="session")
def eq_space(eq_query, database):
    base = actual_selectivities(eq_query, database)
    dim = ErrorDimension(eq_query.selections[0].pid, 1e-4, 1.0, "p_retailprice")
    return SelectivitySpace(eq_query, [dim], 64, base)


@pytest.fixture(scope="session")
def eq_diagram(optimizer, eq_space):
    return PlanDiagram.exhaustive(optimizer, eq_space)


@pytest.fixture(scope="session")
def eq_bouquet(eq_diagram):
    from repro.core import identify_bouquet

    return identify_bouquet(eq_diagram)


#: A miniature Lab: tiny scale and coarse grids for fast multi-D tests.
MINI_LAB = dict(
    tpch_scale=0.002,
    tpcds_scale=0.002,
    stats_sample=1000,
    resolutions={1: 40, 2: 12, 3: 7, 4: 5, 5: 4},
)


@pytest.fixture(scope="session")
def lab():
    """The session's shared miniature Lab (:data:`MINI_LAB`)."""
    return Lab(**MINI_LAB)
