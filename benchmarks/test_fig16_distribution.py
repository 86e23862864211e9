"""Figure 16 — spatial distribution of robustness enhancement (5D_DS_Q19).

Regenerates the histogram of per-location improvement factors
``SubOptWorst(qa) / SubOpt(*, qa)``.  Paper shape: the vast majority of
locations see large (multi-order) improvements; SEER's enhancement stays
below 10x everywhere.
"""

import numpy as np

from _bench_utils import run_once
from repro.obs import format_table
from repro.robustness import enhancement_histogram, robustness_enhancement


def build(lab):
    ql = lab.build("5D_DS_Q19")
    nat_worst = ql.nat.subopt_worst()
    bou_enh = robustness_enhancement(ql.bouquet_cost_field, ql.pic, nat_worst)
    seer_enh = nat_worst / ql.seer.subopt_worst()
    return ql, bou_enh, seer_enh


def test_fig16_enhancement_distribution(benchmark, lab, record):
    ql, bou_enh, seer_enh = run_once(benchmark, lambda: build(lab))
    bou_hist = enhancement_histogram(bou_enh)
    seer_hist = enhancement_histogram(seer_enh)
    rows = [
        (bucket, f"{bou_hist[bucket]:.1f}", f"{seer_hist[bucket]:.1f}")
        for bucket in bou_hist
    ]
    table = format_table(
        ["improvement bucket", "BOU % of locations", "SEER % of locations"],
        rows,
        title="Figure 16 — distribution of robustness enhancement (5D_DS_Q19)",
    )
    record("fig16_distribution", table)

    # Paper shapes: BOU improves the majority of locations by >= 10x,
    # while SEER's enhancement essentially never reaches 10x (the paper:
    # "less than 10 at all locations"; we allow a sliver for grid effects).
    bou_ge_10 = float((bou_enh >= 10.0).mean())
    seer_ge_10 = float((seer_enh >= 10.0).mean())
    assert bou_ge_10 > 0.5
    assert seer_ge_10 < 0.05
    # And BOU improves the median location by an order of magnitude more
    # than SEER does.
    assert np.median(bou_enh) > 10 * np.median(seer_enh)
