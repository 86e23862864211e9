"""Theorems 1 & 2 — the r²/(r−1) bound and the optimality of doubling.

Regenerates the analytical content of §3.1: the bound as a function of
the geometric ratio r (minimized at r=2 with value 4), and the
adversarial lower-bound construction showing no deterministic budget
sequence achieves worst-case sub-optimality below 4.
"""

from _bench_utils import run_once
from repro.obs import format_table
from repro.core.bounds import (
    best_achievable_mso,
    geometric_budgets,
    mso_bound_1d,
    worst_case_suboptimality,
)

RATIOS = [1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 8.0]
SPAN = 2.0**24


def build():
    rows = []
    for r in RATIOS:
        budgets = geometric_budgets(1.0, SPAN, r)
        rows.append((r, mso_bound_1d(r), worst_case_suboptimality(budgets)))
    best_r, best_val = best_achievable_mso(num_steps=24, span=SPAN)
    return rows, best_r, best_val


def test_theorem1_and_2(benchmark, record):
    (rows, best_r, best_val) = run_once(benchmark, lambda: build())
    table = format_table(
        ["ratio r", "Theorem 1 bound r²/(r−1)", "adversarial worst case"],
        rows,
        title="Theorems 1-2 — geometric discretization bounds (1D)",
    )
    footer = (
        f"best ratio over the geometric family: r={best_r:.2f} with "
        f"worst case {best_val:.3f} (Theorem 2: no deterministic online "
        f"algorithm beats 4)"
    )
    record("theorems_bounds", table + "\n" + footer)

    for r, bound, adversarial in rows:
        # The adversary approaches but never exceeds the Theorem 1 bound.
        assert adversarial <= bound * (1 + 1e-9)
    bounds = {r: b for r, b, _ in rows}
    assert bounds[2.0] == min(bounds.values()) == 4.0
    # The searched family steps ratios by 1%, so the optimum can land a
    # whisker above the exact r=2 value of 4.
    assert 3.5 <= best_val <= 4.0 + 1e-3
    assert abs(best_r - 2.0) < 0.5
