"""The Figure 13 loop starts from a state, not only from the origin.

``BouquetRunner._start`` decides a run's initial ``RunState`` and
``_run_optimized`` advances it in place; the state is whole again by
every execution, so a run cut anywhere continues to the same answer —
which is what lets the sweep residue resume from its cohort's state.
The spill bisection moves the spill node's own formula only; the
literal whole-subtree bisection (``tests/conftest.py``) is its oracle.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime import (
    AbstractExecutionService,
    BouquetRunner,
    ExecutionService,
)
from repro.sweep import BatchCoster
from tests.conftest import spilled_run_by_subtree_walk


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

    def run_full(self, plan_id, budget, cancel=None):
        return self._through(self.inner.run_full, plan_id, budget)

    def run_spilled(self, plan_id, budget, unlearned_pids, cancel=None):
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
        full = whole._run_optimized(whole._start()[0])
        assert full.completed
        for k in range(full.execution_count):
            cut = runner(k)
            state, _probe_cost = cut._start()
            with pytest.raises(_Cut):
                cut._run_optimized(state)
            assert state.total == sum(e.cost_spent for e in full.executions[:k])
            handed_over = copy.deepcopy(state)
            resumed = runner()._run_optimized(state)
            assert resumed.total_cost == full.total_cost
            assert resumed.final_plan_id == full.final_plan_id
            assert resumed.executions == full.executions[k:]
            # The state is all the loop reads: an equal one runs equally.
            again = runner()._run_optimized(handed_over)
            assert (again.total_cost, again.executions) == (
                resumed.total_cost, resumed.executions
            )


class TestSpillBisection:
    """``run_spilled`` bisects on the spill node's own formula; the
    whole-subtree walk gives the same outcome, float for float."""

    @pytest.fixture(scope="class")
    def cases(self, lab):
        bouquet = lab.build("3D_H_Q5").bouquet
        space = bouquet.space
        rng = np.random.default_rng(5)
        flat = rng.choice(space.size, size=20, replace=False)
        locations = [
            tuple(int(i) for i in np.unravel_index(f, space.shape)) for f in flat
        ]
        pids = [dim.pid for dim in space.dimensions]
        unlearned_sets = [frozenset(pids)] + [frozenset((pid,)) for pid in pids]
        return bouquet, locations, unlearned_sets

    def test_scalar_service_equals_the_subtree_walk(self, cases):
        bouquet, locations, unlearned_sets = cases
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
        bouquet, locations, unlearned_sets = cases
        space = bouquet.space
        coster = BatchCoster(bouquet)

        def interp(lo, hi, t):
            """``_geometric_interp`` in the coster's arithmetic, one row."""
            tv = np.array([hi])
            return float(np.where(tv <= lo, tv, lo * (tv / lo) ** np.array([t]))[0])

        truth = np.array([space.selectivities_at(loc) for loc in locations])
        for plan_id in bouquet.plan_ids:
            for budget in bouquet.budgets:
                for unlearned in unlearned_sets:
                    answered, exact, spent, learned, target_dims = coster.run_spilled(
                        plan_id, budget, unlearned, truth
                    )
                    for row, location in enumerate(locations):
                        want = spilled_run_by_subtree_walk(
                            bouquet, space.selectivities_at(location),
                            plan_id, budget, unlearned, interp,
                        )
                        assert answered[row] == want.completed
                        assert spent[row] == want.cost_spent
                        assert [space.dimensions[j].pid for j in target_dims] == [
                            l.pid for l in want.learned
                        ]
                        assert learned[row].tolist() == [l.value for l in want.learned]
                        assert all(
                            l.exact == bool(answered[row] or exact[row])
                            for l in want.learned
                        )
