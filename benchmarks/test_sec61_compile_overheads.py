"""§6.1 — compile-time overheads: contour-focused POSP generation.

The paper keeps compile time practical by optimizing only a narrow band
of locations around each isocost contour (recursive hypercube
subdivision, §4.2).  This benchmark regenerates that claim: optimizer
calls spent by the contour-focused strategy versus the exhaustive
one-call-per-location baseline, and the band's fidelity (its costs are
exact where it optimized).
"""

from _bench_utils import run_once
from repro.obs import format_table
from repro.core.contours import contour_costs
from repro.ess import contour_focused_posp

QUERIES = ["EQ", "2D_H_Q8a", "3D_H_Q5", "3D_DS_Q96"]


def build_rows(lab):
    rows = []
    for name in QUERIES:
        ql = lab.build(name)
        steps = contour_costs(ql.diagram.cmin, ql.diagram.cmax, 2.0)
        band = contour_focused_posp(ql.diagram.cache.optimizer, ql.space, steps)
        rows.append(
            (
                name,
                ql.space.size,
                band.optimizer_calls,
                f"{band.optimizer_calls / ql.space.size:.0%}",
                band.pruned_boxes,
                len(band.posp_plan_ids),
                len(ql.diagram.posp_plan_ids),
            )
        )
    return rows


def test_sec61_contour_focused_overheads(benchmark, lab, record):
    rows = run_once(benchmark, lambda: build_rows(lab))
    table = format_table(
        [
            "error space",
            "grid size",
            "band optimizer calls",
            "fraction",
            "pruned boxes",
            "band POSP",
            "full POSP",
        ],
        rows,
        title="§6.1 — compile-time overheads: contour-focused vs exhaustive POSP",
    )
    record("sec61_compile_overheads", table)

    for name, size, calls, _, pruned, band_posp, full_posp in rows:
        # The band spends strictly fewer optimizer calls than exhaustive
        # enumeration, prunes real work, and still finds plans.  (The
        # "full POSP" column can be *smaller* than the band's in 3D+,
        # where the full diagram is itself a candidate approximation.)
        assert calls < size, name
        assert pruned > 0, name
        assert band_posp >= 1, name
