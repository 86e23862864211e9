"""ReOpt — a mid-query re-optimization baseline (POP/Rio style, §7).

The paper excludes re-optimization techniques from its evaluation
because "their performance could be arbitrarily poor with regard to both
P_oe and P_oa"; we implement a faithful simplification so that claim can
be examined empirically:

* start from the optimizer's plan at the *estimated* location ``qe``;
* execute until the first error-prone node completes, observing the true
  selectivity of that predicate (the work spent is charged like a
  spilled partial execution and its results are conservatively
  discarded, as in the bouquet's accounting);
* re-optimize at the refined location and repeat until a plan executes
  with no unobserved error predicate left — that run's estimates cannot
  be invalidated, so it runs to completion.

Unlike the bouquet, ReOpt has no cost ceiling on each step: a terrible
initial plan can burn unbounded work *before* the first checkpoint, and
each re-optimization restarts from scratch — which is exactly why it
provides no MSO guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

from ..ess.space import SelectivitySpace
from ..exceptions import EssError
from ..optimizer.optimizer import Optimizer
from ..optimizer.plans import cost_plan, first_error_node, spilled_cost
from ..query.query import Query


@dataclass
class ReoptStep:
    """One plan attempt of a ReOpt run."""

    plan_id: int
    cost_spent: float
    learned_pids: Tuple[str, ...]
    completed: bool


@dataclass
class ReoptRunResult:
    """Account of one ReOpt execution."""

    total_cost: float
    steps: List[ReoptStep]
    final_plan_id: int


class ReoptStrategy:
    """Simulated mid-query re-optimization over an ESS."""

    def __init__(self, space: SelectivitySpace, optimizer: Optimizer):
        self.space = space
        self.optimizer = optimizer
        self.query: Query = space.query
        self._dim_pids = {dim.pid for dim in space.dimensions}

    def run(
        self,
        qe_values: Sequence[float],
        qa_values: Sequence[float],
        max_steps: int = 20,
    ) -> ReoptRunResult:
        """Execute at true location ``qa`` starting from estimate ``qe``.

        Both are vectors over the ESS dimensions; non-dimension
        selectivities come from the space's base assignment (truth).
        """
        if len(qe_values) != self.space.dimensionality:
            raise EssError("qe vector does not match ESS dimensionality")
        if len(qa_values) != self.space.dimensionality:
            raise EssError("qa vector does not match ESS dimensionality")
        truth = self.space.assignment_for(qa_values)
        believed = self.space.assignment_for(qe_values)
        observed: Set[str] = set()
        total = 0.0
        steps: List[ReoptStep] = []
        schema = self.optimizer.schema
        model = self.optimizer.cost_model

        for _ in range(max_steps):
            plan = self.optimizer.optimize(self.query, assignment=believed)
            unobserved = frozenset(self._dim_pids - observed)
            node = first_error_node(plan.plan, unobserved)
            if node is None:
                # Every error predicate's selectivity is known: this plan's
                # costing cannot be invalidated mid-run; it completes.
                final_cost = cost_plan(plan.plan, schema, model, truth).cost
                total += final_cost
                steps.append(
                    ReoptStep(
                        plan_id=plan.plan_id,
                        cost_spent=final_cost,
                        learned_pids=(),
                        completed=True,
                    )
                )
                return ReoptRunResult(
                    total_cost=total, steps=steps, final_plan_id=plan.plan_id
                )
            # Run up to (and including) the checkpoint node at TRUE costs,
            # observing the true selectivities it evaluates.
            checkpoint_cost, learned = spilled_cost(
                plan.plan, schema, model, truth, unobserved
            )
            total += checkpoint_cost
            for pid in learned:
                observed.add(pid)
                believed[pid] = truth[pid]
            steps.append(
                ReoptStep(
                    plan_id=plan.plan_id,
                    cost_spent=checkpoint_cost,
                    learned_pids=tuple(sorted(learned)),
                    completed=False,
                )
            )
        raise EssError("ReOpt failed to converge within max_steps")

    # ------------------------------------------------------------------

