"""The Figure 13 loop starts from a state, not only from the origin.

``BouquetRunner._start`` decides a run's initial ``RunState`` and
``_run_from`` advances it in place; the state is whole again by
every execution, so a run cut anywhere continues to the same answer.
A spilled run's reach is searched on the spill node's own formula only
(``reach_under_budget``: the 2**-40 grid point 40 halvings end on, found
without making them); the literal whole-subtree 40-step bisection
(``tests/conftest.py``) is its oracle.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.runtime import (
    AbstractExecutionService,
    BouquetRunner,
    ExecutionService,
    reach_under_budget,
    spill,
)
from repro.sweep import BatchCoster
from tests.conftest import forty_halvings, spilled_run_by_subtree_walk


class _Cut(Exception):
    pass


class CutAfter(ExecutionService):
    """Lets ``k`` executions through and stops the run at the next one."""

    def __init__(self, inner, k):
        self.inner = inner
        self.left = k

    def _through(self, run, *args):
        if self.left == 0:
            raise _Cut
        self.left -= 1
        return run(*args)

    def run_full(self, plan_id, budget):
        return self._through(self.inner.run_full, plan_id, budget)

    def run_spilled(self, plan_id, budget, unlearned_pids):
        return self._through(self.inner.run_spilled, plan_id, budget, unlearned_pids)


@pytest.fixture(scope="module")
def bouquets(lab):
    return [lab.build(name).bouquet for name in ("2D_H_Q8a", "3D_H_Q5", "4D_H_Q8")]


class TestResume:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_run_cut_after_any_execution_resumes_to_the_same_run(self, bouquets, data):
        bouquet = data.draw(st.sampled_from(bouquets))
        space = bouquet.space
        location = tuple(data.draw(st.integers(0, size - 1)) for size in space.shape)
        qa = space.selectivities_at(location)

        def runner(k=None):
            service = AbstractExecutionService(bouquet, qa)
            return BouquetRunner(bouquet, service if k is None else CutAfter(service, k))

        whole = runner()
        full = whole._run_from(whole._start()[0])
        assert full.completed
        for k in range(full.execution_count):
            cut = runner(k)
            state, _probe_cost = cut._start()
            with pytest.raises(_Cut):
                cut._run_from(state)
            assert state.total == sum(e.cost_spent for e in full.executions[:k])
            handed_over = copy.deepcopy(state)
            resumed = runner()._run_from(state)
            assert resumed.total_cost == full.total_cost
            assert resumed.final_plan_id == full.final_plan_id
            assert resumed.executions == full.executions[k:]
            # The state is all the loop reads: an equal one runs equally.
            again = runner()._run_from(handed_over)
            assert (again.total_cost, again.executions) == (
                resumed.total_cost, resumed.executions
            )


def _moving(lo, truth):
    """A target's selectivity as the run progresses (``_geometric_interp``)."""
    return lambda t: truth if truth <= lo else lo * (truth / lo) ** t


@st.composite
def monotone_costs(draw):
    """One row for the search: ``(cost, log_spread)`` with ``cost(t)``
    non-decreasing, in units of the budget (so the budget is 1.0) and
    over it at ``t = 1``, and the ``log_spread`` a caller would pass
    with it — affine in one target, bilinear in two (an ``inl`` join's
    shape), bending with one of two targets only (an index scan's), a
    target already at its truth, flat to rounding, a step exactly on a
    grid point, a run that cannot start."""
    kind = draw(st.sampled_from(
        ["affine", "bilinear", "one of two", "clamped", "flat", "step", "stuck"]
    ))
    if kind == "step":
        edge = draw(st.integers(1, 2**40 - 1)) / 2**40
        inclusive = draw(st.booleans())
        return (lambda t: 0.5 if t < edge or (t == edge and inclusive) else 2.0), 0.0
    targets = []
    for _ in range(2):
        lo = 10.0 ** draw(st.floats(-6, -1))
        targets.append((lo, min(1.0, lo * 10.0 ** draw(st.floats(0.1, 5)))))
    if kind == "clamped":
        targets[1] = (targets[1][0], targets[1][0] * draw(st.floats(0.1, 1.0)))
    first, second = (_moving(lo, truth) for lo, truth in targets)
    a = 10.0 ** draw(st.floats(0, 4))
    b = 10.0 ** (draw(st.floats(-9, -6)) if kind == "flat" else draw(st.floats(3, 9)))
    c = 10.0 ** draw(st.floats(3, 9))
    if kind in ("affine", "one of two", "flat"):
        cost = lambda t: a + b * first(t)
    else:
        cost = lambda t: a + b * first(t) + c * first(t) * second(t)
    if kind == "stuck":
        budget = cost(0.0) * draw(st.floats(0.1, 0.99))
    else:
        budget = cost(0.0) + draw(st.floats(0.0, 0.999)) * (cost(1.0) - cost(0.0))
    assume(cost(1.0) > budget)
    moving = targets[:1] if kind in ("affine", "flat") else targets
    spread = sum(math.log(max(truth / lo, 1.0)) for lo, truth in moving)
    return (lambda t: cost(t) / budget), spread


class TestReachUnderBudget:
    """The search alone, over synthetic monotone costs: the grid point
    the 40-step loop ends on, ``==``."""

    @given(rows=st.lists(monotone_costs(), min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_equals_forty_halvings(self, rows):
        probes = []

        def cost_at(t):
            probes.append(t)
            return [cost(x) for (cost, _), x in zip(rows, t.tolist())]

        at_one = cost_at(np.ones(len(rows)))
        got = reach_under_budget(cost_at, 1.0, at_one, [spread for _, spread in rows])
        assert got.tolist() == [forty_halvings(cost, 1.0) for cost, _ in rows]
        # t = 1, t = 0, two proposals, then a midpoint every other probe.
        assert len(probes) <= 2 + 2 + 80


class TestSpillBisection:
    """``spill`` searches on the spill node's own formula, on one row
    (the service's ``run_spilled``) or many (the sweep's); the
    whole-subtree bisection gives the same outcome, float for float."""

    @pytest.fixture(scope="class")
    def cases(self, bouquets):
        out = []
        for bouquet in bouquets:
            space = bouquet.space
            rng = np.random.default_rng(5)
            flat = rng.choice(space.size, size=20, replace=False)
            locations = [
                tuple(int(i) for i in np.unravel_index(f, space.shape)) for f in flat
            ]
            pids = [dim.pid for dim in space.dimensions]
            unlearned_sets = [frozenset(pids)] + [frozenset((pid,)) for pid in pids]
            out.append((bouquet, locations, unlearned_sets))
        return out

    def test_scalar_service_equals_the_subtree_walk(self, cases):
        for bouquet, locations, unlearned_sets in cases:
            bisected = 0
            for location in locations:
                qa = bouquet.space.selectivities_at(location)
                service = AbstractExecutionService(bouquet, qa)
                for plan_id in bouquet.plan_ids:
                    for budget in bouquet.budgets:
                        for unlearned in unlearned_sets:
                            got = service.run_spilled(plan_id, budget, unlearned)
                            want = spilled_run_by_subtree_walk(
                                bouquet, qa, plan_id, budget, unlearned
                            )
                            assert got == want
                            bisected += any(not l.exact for l in got.learned)
            assert bisected > 250  # the bisection itself was exercised

    def test_batch_coster_equals_the_subtree_walk(self, cases):
        """The same spill over many rows of one context, as the sweep
        runs it: every row equals the walk at its location."""
        for bouquet, locations, unlearned_sets in cases:
            space = bouquet.space
            lows = {dim.pid: dim.lo for dim in space.dimensions}
            truth = np.array([space.selectivities_at(loc) for loc in locations])
            at_truth, rows = BatchCoster(bouquet).context(truth), np.arange(len(truth))
            for plan_id in bouquet.plan_ids:
                plan = bouquet.registry.plan(plan_id)
                for budget in bouquet.budgets:
                    for unlearned in unlearned_sets:
                        out = spill(plan, unlearned, lows, budget, at_truth, rows)
                        for row, location in enumerate(locations):
                            want = spilled_run_by_subtree_walk(
                                bouquet, space.selectivities_at(location),
                                plan_id, budget, unlearned,
                            )
                            assert out.answered[row] == want.completed
                            assert out.spent[row] == want.cost_spent
                            assert list(out.targets) == [l.pid for l in want.learned]
                            assert out.learned[row].tolist() == [l.value for l in want.learned]
                            assert all(
                                l.exact == bool(out.answered[row] or out.exact[row])
                                for l in want.learned
                            )
