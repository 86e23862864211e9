"""Ablation A (§3.3) — the anorexic threshold λ.

Sweeps λ on a 3D space: larger λ shrinks ρ (and usually the bound) at
the price of the (1+λ) budget inflation.  λ=20% is the paper's sweet
spot; this ablation regenerates the trade-off curve behind that choice.
"""

from _bench_utils import run_once
from repro.obs import format_table
from repro.core import basic_cost_field, identify_bouquet
from repro.robustness import bouquet_aso, bouquet_mso

LAMBDAS = [0.0, 0.1, 0.2, 0.5]
QUERY = "3D_H_Q7"


def build(lab):
    ql = lab.build(QUERY)
    rows = []
    for lambda_ in LAMBDAS:
        bouquet = identify_bouquet(ql.diagram, lambda_=lambda_)
        field = basic_cost_field(bouquet)
        rows.append(
            (
                f"{lambda_:.0%}",
                bouquet.rho,
                bouquet.cardinality,
                bouquet.mso_bound,
                bouquet_mso(field, ql.pic),
                bouquet_aso(field, ql.pic),
            )
        )
    return rows


def test_ablation_lambda(benchmark, lab, record):
    rows = run_once(benchmark, lambda: build(lab))
    table = format_table(
        ["λ", "ρ", "|B|", "MSO bound", "measured MSO", "measured ASO"],
        rows,
        title=f"Ablation — anorexic threshold λ on {QUERY}",
    )
    record("ablation_lambda", table)

    rhos = [r[1] for r in rows]
    cards = [r[2] for r in rows]
    # ρ and |B| shrink (weakly) as λ grows.
    assert rhos == sorted(rhos, reverse=True)
    assert cards == sorted(cards, reverse=True)
    # Measured MSO always respects the λ-adjusted bound.
    for row in rows:
        assert row[4] <= row[3] * (1 + 1e-6)
