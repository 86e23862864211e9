"""Strategy face-off: NAT vs SEER vs plan bouquets on one hard query.

Reproduces, end to end on a single 5D TPC-DS query, the comparison that
drives the paper's evaluation: the native optimizer (NAT), robust plan
selection (SEER), and the plan bouquet (BOU), scored on MSO, ASO,
MaxHarm, and plan cardinality — then digs into *where* each strategy
wins with the spatial enhancement distribution of Figure 16.

Run:  python examples/strategy_faceoff.py
"""

from repro import Lab
from repro.obs import format_table
from repro.robustness import (
    bouquet_aso,
    bouquet_mso,
    enhancement_histogram,
    harm_fraction,
    max_harm,
    robustness_enhancement,
)


def main():
    lab = Lab()
    ql = lab.build("5D_DS_Q19")
    print(ql.workload.query.describe())
    print(ql.space.describe())
    print()

    field = ql.bouquet_cost_field
    nat_worst = ql.nat.subopt_worst()
    rows = [
        ("NAT", ql.nat.mso(), ql.nat.aso(), "-", ql.nat.plan_cardinality),
        ("SEER", ql.seer.mso(), ql.seer.aso(), "<= 0.2", ql.seer.plan_cardinality),
        (
            "BOU",
            bouquet_mso(field, ql.pic),
            bouquet_aso(field, ql.pic),
            f"{max_harm(field, ql.pic, nat_worst):.2f}",
            ql.bouquet.cardinality,
        ),
    ]
    print(
        format_table(
            ["strategy", "MSO", "ASO", "MaxHarm", "plans"],
            rows,
            title="5D_DS_Q19 — strategy comparison",
        )
    )
    print(
        f"(bouquet guarantee: MSO <= {ql.bouquet.mso_bound:.1f}; "
        f"harmed locations: "
        f"{harm_fraction(field, ql.pic, nat_worst):.1%} of the space)"
    )
    print()

    enhancement = robustness_enhancement(field, ql.pic, nat_worst)
    hist = enhancement_histogram(enhancement)
    print(
        format_table(
            ["robustness improvement", "% of locations"],
            [(bucket, f"{pct:.1f}") for bucket, pct in hist.items()],
            title="Where the bouquet helps (Figure 16 style)",
        )
    )


if __name__ == "__main__":
    main()
