"""repro.batchopt — batch-vectorized compile kernel.

DPsize join enumeration run once per query shape while carrying a numpy
cost axis over a slab of ESS locations (see :mod:`repro.batchopt.kernel`
for the recurrence — per-subset best arrays and back-pointers — and the
equality guarantee vs the scalar DP).  The public entry points are
:meth:`repro.optimizer.Optimizer.optimize_slab` (arrays), its
list-shaped front :meth:`~repro.optimizer.Optimizer.optimize_batch` and
the one-location :meth:`~repro.optimizer.Optimizer.optimize`;
process-pool slab sharding lives with its one caller,
:meth:`repro.ess.diagram.PlanDiagram.exhaustive`.
"""

from .kernel import BatchPlanChoice, batch_best_plans, stack_assignments

__all__ = [
    "BatchPlanChoice",
    "batch_best_plans",
    "stack_assignments",
]
