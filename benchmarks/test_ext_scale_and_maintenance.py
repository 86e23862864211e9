"""Extension experiments around §8's database scale-up discussion.

* **Scale sensitivity** — as the database grows, the native optimizer's
  worst case deteriorates (bigger cost gradients mean worse mistakes)
  while the bouquet's measured MSO stays pinned under its
  scale-independent bound.
* **Incremental maintenance** — refreshing an existing bouquet after a
  scale-up (reusing its plans, seeding a few fresh optimizations) costs a
  small fraction of a from-scratch rebuild's optimizer calls while
  producing a bouquet whose guarantee still holds.
"""

from _bench_utils import run_once
from repro.bench.harness import Lab
from repro.obs import format_table
from repro.core import basic_cost_field, refresh_bouquet
from repro.ess import SelectivitySpace
from repro.optimizer import actual_selectivities
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


def maintenance_rows():
    rows = []
    base_lab = Lab(tpch_scale=0.003, resolutions={1: 64})
    old = base_lab.build("EQ")
    for factor in (2, 4):
        scale = 0.003 * factor
        new_lab = Lab(tpch_scale=scale, resolutions={1: 64})
        query = new_lab.workload["EQ"].query
        base = actual_selectivities(query, new_lab.h_db)
        new_space = SelectivitySpace(
            query, old.space.dimensions, old.space.shape[0], base
        )
        result = refresh_bouquet(old.bouquet, new_lab.h_optimizer, new_space)
        field = basic_cost_field(result.bouquet)
        measured = bouquet_mso(field, result.bouquet.diagram.costs)
        rows.append(
            (
                f"{factor}x",
                result.optimizer_calls,
                new_space.size,
                result.reused_plan_count,
                result.new_plan_count,
                measured,
                result.bouquet.mso_bound,
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


def test_ext_incremental_maintenance(benchmark, record):
    rows = run_once(benchmark, maintenance_rows)
    table = format_table(
        [
            "scale-up",
            "refresh optimizer calls",
            "rebuild calls (exhaustive)",
            "plans reused",
            "plans new",
            "measured MSO",
            "bound",
        ],
        rows,
        title="Extension — incremental bouquet maintenance after scale-up (§8)",
    )
    record("ext_maintenance", table)

    for factor, calls, rebuild, reused, new, measured, bound in rows:
        # The delta engine re-plans the drift-suspect locations only.
        assert calls < rebuild
        assert measured <= bound * (1 + 1e-6)
        assert reused >= 1
