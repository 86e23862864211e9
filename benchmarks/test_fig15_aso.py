"""Figure 15 — average-case sub-optimality (ASO) of NAT, SEER, and BOU.

Paper shapes: BOU's worst-case robustness is *not* purchased with
average-case regression — BOU's ASO is comparable to or better than
NAT's, and typically below 4 in absolute terms; SEER again tracks NAT.
"""

from _bench_utils import run_once
from repro.obs import format_table
from repro.query.workload import TABLE2_NAMES
from repro.robustness import bouquet_aso


def build_rows(lab):
    rows = []
    for name in TABLE2_NAMES:
        ql = lab.build(name)
        bou = bouquet_aso(ql.bouquet_cost_field, ql.pic)
        rows.append((name, ql.nat.aso(), ql.seer.aso(), bou))
    return rows


def test_fig15_aso(benchmark, lab, record):
    rows = run_once(benchmark, lambda: build_rows(lab))
    table = format_table(
        ["error space", "NAT", "SEER", "BOU"],
        rows,
        title="Figure 15 — ASO (average-case sub-optimality)",
    )
    record("fig15_aso", table)

    better_or_comparable = 0
    for name, nat, seer, bou in rows:
        # BOU ASO absolute value stays small (paper: typically < 4; we
        # allow a small margin for grid coarseness).
        assert bou < 5.5, name
        if bou <= nat * 1.25:
            better_or_comparable += 1
    # For the vast majority of spaces BOU's ASO is comparable or better.
    assert better_or_comparable >= len(rows) - 2
