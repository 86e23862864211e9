"""Extension experiment — robustness of the reproduction across data seeds.

The headline claims (BOU's MSO orders of magnitude under NAT's, within
the theoretical bound, with a small bouquet) must not be artifacts of one
synthetic database.  This experiment regenerates two error spaces under
three different data-generation seeds and re-checks the claims on each.
"""

from _bench_utils import run_once
from repro.bench.harness import Lab
from repro.obs import format_table
from repro.robustness import bouquet_mso

SEEDS = [42, 7, 2024]
QUERIES = ["EQ", "3D_DS_Q96"]


def build_rows():
    rows = []
    for seed in SEEDS:
        lab = Lab(seed=seed, resolutions={1: 64, 2: 24, 3: 10})
        for name in QUERIES:
            ql = lab.build(name)
            bou = bouquet_mso(ql.bouquet_cost_field, ql.pic)
            rows.append(
                (
                    name,
                    seed,
                    ql.nat.mso(),
                    bou,
                    ql.bouquet.mso_bound,
                    ql.bouquet.cardinality,
                )
            )
    return rows


def test_ext_seed_robustness(benchmark, record):
    rows = run_once(benchmark, build_rows)
    table = format_table(
        ["error space", "seed", "NAT MSO", "BOU MSO", "BOU bound", "|B|"],
        rows,
        title="Extension — headline claims across data-generation seeds",
    )
    record("ext_seed_robustness", table)

    for name, seed, nat, bou, bound, card in rows:
        assert bou <= bound * (1 + 1e-6), (name, seed)
        assert nat / bou > 5, (name, seed)
        assert card <= 10, (name, seed)
