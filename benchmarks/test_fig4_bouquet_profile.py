"""Figure 4 — bouquet vs native-optimizer performance profile on EQ (1D).

Regenerates the series of Figure 4: per actual selectivity, the PIC
(ideal), the native optimizer's worst-case profile, and the bouquet's
cost (basic and optimized).  Also reports the headline worst/average
sub-optimality numbers (paper: basic 3.6 worst / 2.4 average; optimized
3.1 / 1.7; native worst ≈ 100).
"""

import numpy as np

from _bench_utils import run_once
from repro.obs import format_table
from repro.core import basic_cost_field, optimized_cost_field


def build_profiles(lab):
    ql = lab.build("EQ")
    basic = basic_cost_field(ql.bouquet)
    sample = [(i,) for i in range(0, ql.space.shape[0], 4)]
    optimized = optimized_cost_field(ql.bouquet, sample)
    nat_worst = ql.nat.subopt_worst() * ql.pic  # worst-case cost profile
    return ql, basic, optimized, nat_worst


def test_fig4_bouquet_profile(benchmark, lab, record):
    ql, basic, optimized, nat_worst = run_once(benchmark, lambda: build_profiles(lab))
    grid = ql.space.grids[0]
    rows = []
    for i in range(0, ql.space.shape[0], 4):
        rows.append(
            (
                f"{grid[i] * 100:.4f}",
                ql.pic[(i,)],
                nat_worst[(i,)],
                basic[(i,)],
                optimized[(i,)],
            )
        )
    basic_sub = basic / ql.pic
    opt_subs = {loc: cost / ql.pic[loc] for loc, cost in optimized.items()}
    summary = (
        f"worst-case sub-optimality: basic BOU {basic_sub.max():.2f}, "
        f"optimized BOU {max(opt_subs.values()):.2f}, NAT {ql.nat.mso():.1f}\n"
        f"average sub-optimality:    basic BOU {basic_sub.mean():.2f}, "
        f"optimized BOU {np.mean(list(opt_subs.values())):.2f}, NAT {ql.nat.aso():.2f}"
    )
    table = format_table(
        ["sel %", "PIC", "NAT worst", "BOU basic", "BOU optimized"],
        rows,
        title="Figure 4 — cost profiles over the EQ selectivity range",
    )
    record("fig4_bouquet_profile", table + "\n" + summary)

    import os

    from conftest import RESULTS_DIR
    from repro.bench.svg import loglog_chart

    xs = [float(g) for g in grid]
    sampled = sorted(optimized)
    svg = loglog_chart(
        {
            "PIC (ideal)": (xs, [float(v) for v in ql.pic]),
            "NAT worst case": (xs, [float(v) for v in nat_worst]),
            "BOU basic": (xs, [float(v) for v in basic]),
            "BOU optimized": (
                [float(grid[loc[0]]) for loc in sampled],
                [float(optimized[loc]) for loc in sampled],
            ),
        },
        "Figure 4 — bouquet vs native performance profile (EQ)",
        "selectivity",
        "cost",
    )
    svg.save(os.path.join(RESULTS_DIR, "fig4_bouquet_profile.svg"))

    # Paper shapes: the bouquet's worst case crushes NAT's; its bound
    # holds; optimized is at least as good as basic on average.
    assert basic_sub.max() <= ql.bouquet.mso_bound * (1 + 1e-6)
    assert basic_sub.max() < ql.nat.mso() / 5
    assert np.mean(list(opt_subs.values())) <= basic_sub.mean() * 1.05
    # Average-case remains moderate (paper: 2.4 for basic BOU).
    assert basic_sub.mean() < 4.0
