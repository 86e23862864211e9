"""Extension experiment around §8's database scale-up discussion: as
the database grows, the native optimizer's worst case deteriorates
(bigger cost gradients mean worse mistakes) while the bouquet's measured
MSO stays pinned under its scale-independent bound.

A scale-up moves every base selectivity, so the bouquet is recompiled,
not maintained: the delta re-plan that once did it was slower than the
compile and not equal to it (DESIGN decision 18).
"""

from _bench_utils import run_once
from repro.bench.harness import Lab
from repro.obs import format_table
from repro.robustness import bouquet_mso

SCALES = [0.002, 0.005, 0.01]
QUERY = "3D_H_Q7"


def scale_rows():
    rows = []
    for scale in SCALES:
        lab = Lab(tpch_scale=scale, tpcds_scale=0.002, resolutions={1: 64, 3: 12})
        ql = lab.build(QUERY)
        bou = bouquet_mso(ql.bouquet_cost_field, ql.pic)
        rows.append(
            (
                f"{scale:g}",
                f"{ql.diagram.cmax / ql.diagram.cmin:.0f}",
                ql.nat.mso(),
                bou,
                ql.bouquet.mso_bound,
            )
        )
    return rows


def test_ext_scale_sensitivity(benchmark, record):
    rows = run_once(benchmark, scale_rows)
    table = format_table(
        ["TPC-H scale", "Cmax/Cmin", "NAT MSO", "BOU MSO", "BOU bound"],
        rows,
        title=f"Extension — database scale sensitivity ({QUERY})",
    )
    record("ext_scale_sensitivity", table)

    nats = [r[2] for r in rows]
    for _scale, _ratio, nat, bou, bound in rows:
        assert bou <= bound * (1 + 1e-6)
    # NAT's worst case deteriorates with scale; the bouquet's does not
    # grow beyond its (scale-independent) guarantee.
    assert nats[-1] > nats[0]
