"""Ablation B (§3.1) — the isocost ratio r.

Sweeps the geometric ratio of the IC steps on the 1D EQ space.  Theorem 1
says the worst-case bound r²/(r−1) is minimized at r=2; the measured MSO
curve should respect each ratio's bound and bottom out around r=2.
"""

from _bench_utils import run_once
from repro.obs import format_table
from repro.core import basic_cost_field, identify_bouquet, mso_bound_1d
from repro.robustness import bouquet_aso, bouquet_mso

RATIOS = [1.5, 2.0, 3.0, 4.0]


def build(lab):
    ql = lab.build("EQ")
    rows = []
    for ratio in RATIOS:
        bouquet = identify_bouquet(ql.diagram, lambda_=0.2, ratio=ratio)
        field = basic_cost_field(bouquet)
        rows.append(
            (
                ratio,
                len(bouquet.contours),
                bouquet.mso_bound,
                bouquet_mso(field, ql.pic),
                bouquet_aso(field, ql.pic),
            )
        )
    return rows


def test_ablation_ratio(benchmark, lab, record):
    rows = run_once(benchmark, lambda: build(lab))
    table = format_table(
        ["ratio r", "contours", "MSO bound", "measured MSO", "measured ASO"],
        rows,
        title="Ablation — contour cost ratio r on EQ (1D)",
    )
    record("ablation_ratio", table)

    # More aggressive ratios need fewer contours.
    contours = [row[1] for row in rows]
    assert contours == sorted(contours, reverse=True)
    # Measured MSO respects each ratio's theoretical bound, and the bound
    # is exactly (1+λ)·ρ·r²/(r−1) with λ=20%.
    for ratio, _, bound, measured, _ in rows:
        assert measured <= bound * (1 + 1e-6)
        assert bound >= 1.2 * mso_bound_1d(ratio) - 1e-9
    # r=2's bound is the smallest of the sweep (Theorem 1).
    bounds = {row[0]: row[2] for row in rows}
    assert bounds[2.0] == min(bounds.values())
