"""Table 2 — query workload specifications.

Regenerates the workload summary: per error space, the join-graph
geometry with relation count and the Cmax/Cmin cost ratio of its ESS.
"""

from _bench_utils import run_once
from repro.obs import format_table
from repro.query.workload import TABLE2_NAMES

#: Geometry column exactly as printed in the paper's Table 2.
PAPER_GEOMETRY = {
    "3D_H_Q5": "chain(6)",
    "3D_H_Q7": "chain(6)",
    "4D_H_Q8": "branch(8)",
    "5D_H_Q7": "chain(6)",
    "3D_DS_Q15": "chain(4)",
    "3D_DS_Q96": "star(4)",
    "4D_DS_Q7": "star(5)",
    "5D_DS_Q19": "branch(6)",
    "4D_DS_Q26": "star(5)",
    "4D_DS_Q91": "branch(7)",
}


def build_rows(lab):
    rows = []
    for name in TABLE2_NAMES:
        ql = lab.build(name)
        rows.append(
            (
                name,
                ql.workload.query.join_graph.describe(),
                ql.workload.dimensionality,
                f"{ql.diagram.cmax / ql.diagram.cmin:.0f}",
            )
        )
    return rows


def test_table2_workload_specifications(benchmark, lab, record):
    rows = run_once(benchmark, lambda: build_rows(lab))
    table = format_table(
        ["query", "join-graph (#relations)", "error dims", "Cmax/Cmin"],
        rows,
        title="Table 2 — query workload specifications",
    )
    record("table2_workload", table)

    for name, geometry, dims, ratio in rows:
        assert geometry == PAPER_GEOMETRY[name]
        assert dims == int(name[0])
        # Every space must have real cost gradient (non-degenerate ESS).
        assert float(ratio) > 2
