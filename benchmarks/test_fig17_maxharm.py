"""Figure 17 — MaxHarm: where the bouquet hurts relative to NAT's worst.

Paper shapes: BOU's harm is bounded (up to ~4x there, much smaller here),
harm occurs on a tiny fraction of locations (<1% in the paper), and
SEER's harm never exceeds λ.
"""

from _bench_utils import run_once
from repro.obs import format_table
from repro.query.workload import TABLE2_NAMES
from repro.robustness import harm_fraction, max_harm


def build_rows(lab):
    rows = []
    for name in TABLE2_NAMES:
        ql = lab.build(name)
        nat_worst = ql.nat.subopt_worst()
        mh = max_harm(ql.bouquet_cost_field, ql.pic, nat_worst)
        frac = harm_fraction(ql.bouquet_cost_field, ql.pic, nat_worst)
        seer_mh = float((ql.seer.subopt_worst() / nat_worst).max() - 1.0)
        rows.append((name, mh, f"{frac * 100:.1f}", seer_mh))
    return rows


def test_fig17_maxharm(benchmark, lab, record):
    rows = run_once(benchmark, lambda: build_rows(lab))
    table = format_table(
        ["error space", "BOU MaxHarm", "BOU harmed locations %", "SEER MaxHarm"],
        rows,
        title="Figure 17 — MaxHarm (positive = harmful)",
    )
    record("fig17_maxharm", table)

    for name, mh, frac, seer_mh in rows:
        ql = lab.build(name)
        # Harm is bounded by MSO-1 (definitionally) and small in practice.
        assert mh <= ql.bouquet.mso_bound - 1
        assert mh <= 4.0, name  # paper: "upto a factor of 4 worse"
        # Harmful locations are rare.
        assert float(frac) <= 10.0, name
        # SEER's harm is capped at λ (= 0.2).
        assert seer_mh <= 0.2 + 1e-9, name
