"""Figure 18 — plan cardinalities of NAT (POSP), SEER, and BOU.

Paper shapes: POSP runs to tens/hundreds of plans; SEER is much smaller;
BOU is smaller still — around ten or fewer even for 5D spaces — making
the bouquet size effectively independent of dimensionality.
"""

from _bench_utils import run_once
from repro.obs import format_table
from repro.query.workload import TABLE2_NAMES


def build_rows(lab):
    rows = []
    for name in TABLE2_NAMES:
        ql = lab.build(name)
        rows.append(
            (
                name,
                ql.nat.plan_cardinality,
                ql.seer.plan_cardinality,
                ql.bouquet.cardinality,
            )
        )
    return rows


def test_fig18_plan_cardinalities(benchmark, lab, record):
    rows = run_once(benchmark, lambda: build_rows(lab))
    table = format_table(
        ["error space", "NAT (POSP)", "SEER", "BOU"],
        rows,
        title="Figure 18 — plan cardinalities (log-scale in the paper)",
    )
    record("fig18_cardinalities", table)

    for name, posp, seer, bou in rows:
        assert seer <= posp, name
        assert bou <= posp, name
        assert bou <= 10, name  # the anorexic promise

    # Bouquet size must not blow up with dimensionality: comparing the
    # largest 5D bouquet to the largest 3D bouquet shows no explosion.
    by_dims = {}
    for name, _, _, bou in rows:
        by_dims.setdefault(int(name[0]), []).append(bou)
    assert max(by_dims[5]) <= 3 * max(by_dims[3])
