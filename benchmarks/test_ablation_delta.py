"""Ablation C (§3.4) — bounded cost-modeling error δ.

The engine's charged costs are perturbed by a deterministic per-node
factor within [1/(1+δ), 1+δ].  §3.4 proves the MSO guarantee inflates by
at most (1+δ)²; this ablation executes the EQ bouquet for real under
increasing δ and verifies the inflated bound (δ=0.4 matches the average
modeling error measured for PostgreSQL by Wu et al., ICDE 2013).
"""

from _bench_utils import OriginStartService, run_once
from repro.obs import format_table
from repro.core import BouquetRunner, mso_bound_with_model_error
from repro.executor import CostPerturbation, ExecutionEngine

DELTAS = [0.0, 0.2, 0.4]


def build(lab):
    ql = lab.build("EQ")
    query = ql.workload.query
    rows = []
    for delta in DELTAS:
        engine = ExecutionEngine(
            lab.h_db,
            perturbation=CostPerturbation(delta=delta, seed=11) if delta else None,
        )
        # The oracle pays the (perturbed) cost of the best plan.
        optimal_plan = ql.diagram.registry.plan(ql.diagram.plan_at(ql.space.corner))
        oracle = engine.execute(query, optimal_plan).spent
        # The ablation is about discovery under cost-model error, so the
        # run starts at the ESS origin as the paper's does.
        service = OriginStartService(ql.bouquet, engine)
        result = BouquetRunner(ql.bouquet, service, mode="basic").run()
        assert result.completed
        subopt = result.total_cost / oracle
        rows.append(
            (delta, result.total_cost, oracle, subopt, mso_bound_with_model_error(ql.bouquet.mso_bound, delta))
        )
    return rows


def test_ablation_model_error(benchmark, lab, record):
    rows = run_once(benchmark, lambda: build(lab))
    table = format_table(
        ["δ", "BOU cost", "oracle cost", "sub-optimality", "(1+δ)² bound"],
        rows,
        title="Ablation — bounded cost-model error δ (EQ, real engine)",
    )
    record("ablation_delta", table)

    for delta, total, oracle, subopt, bound in rows:
        assert subopt <= bound * (1 + 1e-6)
    # The δ=0 run must satisfy the unperturbed bound as well.
    assert rows[0][3] <= rows[0][4] * (1 + 1e-6)
