"""Table 1 — MSO guarantees: POSP contours versus anorexic reduction.

For each multi-dimensional error space, compares ρ and the MSO bound
under (a) raw POSP plan assignment on the contours and (b) anorexic
reduction with λ=20%.  Paper shape: the anorexic bound is dramatically
smaller (e.g. 5D_DS_Q19 drops from 379 to 30.4).
"""

from _bench_utils import run_once
from repro.obs import format_table
from repro.core import identify_bouquet, mso_bound_multid
from repro.query.workload import TABLE2_NAMES


def build_rows(lab):
    rows = []
    for name in TABLE2_NAMES:
        ql = lab.build(name)
        raw = identify_bouquet(ql.diagram, lambda_=0.0)
        anorexic = ql.bouquet  # built with λ=20%
        rows.append(
            (
                name,
                raw.rho,
                mso_bound_multid(raw.rho, lambda_=0.0),
                anorexic.rho,
                mso_bound_multid(anorexic.rho, lambda_=anorexic.lambda_),
            )
        )
    return rows


def test_table1_posp_vs_anorexic_bounds(benchmark, lab, record):
    rows = run_once(benchmark, lambda: build_rows(lab))
    table = format_table(
        ["error space", "ρ POSP", "MSO bound", "ρ ANOREXIC", "MSO bound (λ=20%)"],
        rows,
        title="Table 1 — performance guarantees, POSP versus anorexic",
    )
    record("table1_anorexic_bounds", table)

    improvements = 0
    for name, rho_posp, bound_posp, rho_anx, bound_anx in rows:
        assert rho_anx <= rho_posp
        # Anorexic ρ stays small in absolute terms (paper: <= ~10).
        assert rho_anx <= 10
        if bound_anx < bound_posp:
            improvements += 1
    # The anorexic trade-off wins on most spaces (paper: on all).
    assert improvements >= len(rows) // 2
