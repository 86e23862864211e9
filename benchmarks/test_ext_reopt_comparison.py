"""Extension experiment — ReOpt (mid-query re-optimization) vs BOU.

The paper's §7 excludes POP/Rio-style re-optimization from the
evaluation, arguing such heuristics carry no guarantee.  This extension
implements a charitable ReOpt (perfect checkpoint learning, subtree-only
waste accounting) and compares it with NAT and BOU over sampled
(qe, qa) pairs — quantifying the related-work argument on our substrate.
"""

import numpy as np

from _bench_utils import run_once
from repro.obs import format_table
from repro.core import simulate_at
from repro.core.simulation import sample_locations
from repro.robustness.reopt import ReoptStrategy

QUERIES = ["EQ", "3D_DS_Q96", "3D_H_Q7"]
QA_SAMPLES = 8
QE_SAMPLES = 6


def build_rows(lab):
    rows = []
    for name in QUERIES:
        ql = lab.build(name)
        reopt = ReoptStrategy(ql.space, ql.diagram.cache.optimizer)
        qa_locations = sample_locations(ql.space, QA_SAMPLES, seed=5)
        qe_locations = sample_locations(ql.space, QE_SAMPLES, seed=11)
        reopt_subs, bou_subs = [], []
        for qa_loc in qa_locations:
            qa = list(ql.space.selectivities_at(qa_loc))
            optimal = ql.diagram.cost_at(qa_loc)
            bou = simulate_at(ql.bouquet, qa_loc, mode="basic")
            bou_subs.append(bou.total_cost / optimal)
            for qe_loc in qe_locations:
                qe = list(ql.space.selectivities_at(qe_loc))
                run = reopt.run(qe, qa)
                reopt_subs.append(run.total_cost / optimal)
        rows.append(
            (
                name,
                ql.nat.mso(),
                float(np.max(reopt_subs)),
                float(np.max(bou_subs)),
                float(np.mean(reopt_subs)),
                float(np.mean(bou_subs)),
                ql.bouquet.mso_bound,
            )
        )
    return rows


def test_ext_reopt_comparison(benchmark, lab, record):
    rows = run_once(benchmark, lambda: build_rows(lab))
    table = format_table(
        [
            "error space",
            "NAT MSO",
            "ReOpt worst",
            "BOU worst",
            "ReOpt avg",
            "BOU avg",
            "BOU bound",
        ],
        rows,
        title=(
            "Extension — mid-query re-optimization (ReOpt) vs the bouquet "
            f"({QA_SAMPLES}x{QE_SAMPLES} sampled (qa, qe) pairs)"
        ),
    )
    record("ext_reopt_comparison", table)

    for name, nat, reopt_worst, bou_worst, reopt_avg, bou_avg, bound in rows:
        # ReOpt's checkpoints rescue it from NAT's worst case...
        assert reopt_worst < nat, name
        # ...but only the bouquet carries a guarantee, and it holds.
        assert bou_worst <= bound * (1 + 1e-6), name
