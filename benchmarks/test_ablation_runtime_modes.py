"""Ablation D — basic versus optimized run-time algorithm (§5).

The paper's enhancements (q_run tracking, AxisPlans, spilling, early
contour crossing) turn the basic Figure 7 loop into the optimized
Figure 13 one; Figure 4 and Table 3 report the improvement on single
instances.  This ablation sweeps sampled actual locations across several
multi-dimensional spaces and compares the two modes' average and worst
sub-optimality.
"""

import numpy as np

from _bench_utils import run_once
from repro.obs import format_table
from repro.core import simulate_at
from repro.core.simulation import sample_locations

QUERIES = ["3D_H_Q7", "3D_DS_Q96", "4D_DS_Q26", "5D_DS_Q19"]
SAMPLES = 24


def build_rows(lab):
    rows = []
    for name in QUERIES:
        ql = lab.build(name)
        locations = sample_locations(ql.space, SAMPLES, seed=17)
        basic, optimized = [], []
        basic_execs, optimized_execs = 0, 0
        for location in locations:
            optimal = ql.diagram.cost_at(location)
            b = simulate_at(ql.bouquet, location, mode="basic")
            o = simulate_at(ql.bouquet, location, mode="optimized")
            basic.append(b.total_cost / optimal)
            optimized.append(o.total_cost / optimal)
            basic_execs += b.execution_count
            optimized_execs += o.execution_count
        rows.append(
            (
                name,
                float(np.mean(basic)),
                float(np.mean(optimized)),
                float(np.max(basic)),
                float(np.max(optimized)),
                basic_execs / len(locations),
                optimized_execs / len(locations),
            )
        )
    return rows


def test_ablation_runtime_modes(benchmark, lab, record):
    rows = run_once(benchmark, lambda: build_rows(lab))
    table = format_table(
        [
            "error space",
            "basic avg",
            "opt avg",
            "basic worst",
            "opt worst",
            "basic execs",
            "opt execs",
        ],
        rows,
        title=f"Ablation — basic vs optimized runtime ({SAMPLES} sampled qa per space)",
    )
    record("ablation_runtime_modes", table)

    worst_wins = 0
    for name, basic_avg, opt_avg, basic_worst, opt_worst, be, oe in rows:
        ql = lab.build(name)
        # Both modes respect the guarantee — the optimizations never break
        # the bound.
        assert basic_worst <= ql.bouquet.mso_bound * (1 + 1e-6), name
        assert opt_worst <= ql.bouquet.mso_bound * (1 + 1e-6), name
        # The optimizations never regress catastrophically.
        assert opt_avg <= basic_avg * 1.6, name
        assert opt_worst <= basic_worst * 2.0, name
        if opt_worst <= basic_worst * 1.02:
            worst_wins += 1
    # The optimized mode's reliable payoff is on the worst case (the
    # metric the whole paper optimizes): it improves or ties the sampled
    # worst on at least half the spaces.  The paper likewise reports
    # improvements on its (dense-contour) instances without claiming
    # uniform per-location dominance.
    assert worst_wins >= len(rows) // 2
