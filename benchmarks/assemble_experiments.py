"""Assemble EXPERIMENTS.md from the recorded benchmark results.

Run the benchmark harness first (``pytest benchmarks/ --benchmark-only``),
then ``python benchmarks/assemble_experiments.py``.  Each experiment
section pairs the paper's reported result with the measured one from
``results/<exp>.txt`` and a one-paragraph comparison of the shapes.
"""

from __future__ import annotations

import os

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "..", "results")
TARGET = os.path.join(HERE, "..", "EXPERIMENTS.md")

#: (exp id, title, what the paper reports, how our measurement compares)
SECTIONS = [
    (
        "fig2_posp_1d",
        "Figure 2 — POSP plans on the 1D EQ example",
        "Five POSP plans (P1-P5) partition the p_retailprice selectivity "
        "range, with nested-loop/index plans at low selectivity giving way "
        "to hash/merge plans at high selectivity.",
        "Our optimizer produces the same structure: several POSP plans with "
        "index-driven access at the low end and scan/hash plans at the high "
        "end, each owning a contiguous selectivity interval.",
    ),
    (
        "fig3_pic_contours",
        "Figure 3 — PIC discretization and bouquet identification",
        "Doubling isocost steps IC1..IC7 projected on the PIC; the bouquet "
        "{P1, P2, P3, P5} is the subset of POSP plans at the intersections.",
        "Same construction: doubling steps anchored at Cmax, crossing "
        "selectivities increasing along the PIC, and a bouquet that is a "
        "strict subset of the POSP set.",
    ),
    (
        "fig4_bouquet_profile",
        "Figure 4 — bouquet vs native performance profile (1D EQ)",
        "Bouquet worst case 3.6 / average 2.4 (optimized: 3.1 / 1.7) versus "
        "a native worst case of ≈100.",
        "Measured: basic bouquet worst ≈3, average ≈2.4, native worst ≈170 — "
        "the same two-orders-of-magnitude separation, with the bouquet "
        "profile hugging the PIC.",
    ),
    (
        "table1_anorexic_bounds",
        "Table 1 — MSO guarantees, POSP versus anorexic",
        "Anorexic reduction (λ=20%) drops ρ from 6-159 to 3-9, crushing the "
        "MSO bound, e.g. 5D_DS_Q19 from 379 to 30.4.",
        "Same trade-off: raw contour ρ of 2-39 collapses to 2-7 after "
        "reduction (5D_DS_Q19: bound 156 → 33.6), and the λ-adjusted bound "
        "improves on every space but the two where ρ is already 2 (our grids "
        "are coarser, so raw ρ starts lower than the paper's).",
    ),
    (
        "table2_workload",
        "Table 2 — query workload specifications",
        "Ten error spaces over TPC-H/TPC-DS with chain/star/branch join "
        "graphs of 4-8 relations, 3-5 error dims, Cmax/Cmin of 5-668.",
        "Identical geometries and dimensionalities by construction; "
        "Cmax/Cmin spans 8-500 at our data scale.",
    ),
    (
        "fig14_mso",
        "Figure 14 — MSO of NAT / SEER / BOU",
        "NAT's MSO is 10³-10⁷; SEER gives no material improvement; BOU "
        "delivers orders-of-magnitude gains with MSO < 10 on every query "
        "(5D_DS_Q19: 10⁶ → ≈10).",
        "Measured NAT 300-135000, SEER within one order of NAT, BOU 4.3-17.9 "
        "— always at least 50x (up to 15000x) better than NAT and inside the "
        "theoretical bound.  'MSO < 10 on every query' is not supported on "
        "the exact PIC: 4D_DS_Q91 reads 10.3 and 5D_DS_Q19 17.9, past the "
        "bench's `bou < 15` shape check, which fails there (the candidate "
        "PIC read 11.0, because it inflated the denominator).",
    ),
    (
        "fig15_aso",
        "Figure 15 — ASO of NAT / SEER / BOU",
        "BOU's ASO is comparable to or better than NAT's and typically < 4 "
        "in absolute terms.",
        "Measured BOU ASO 2.4-3.6, better than NAT on every space (NAT "
        "4.5-92); the robustness is not purchased with average-case cost.",
    ),
    (
        "fig16_distribution",
        "Figure 16 — spatial distribution of enhancement (5D_DS_Q19)",
        "≈90% of locations improve by two or more orders of magnitude; "
        "SEER's enhancement is below 10x everywhere.",
        "Measured: 75% of locations improve ≥10x (29% by ≥100x) and SEER "
        "exceeds 10x on only 1.5% of locations — the same qualitative split, "
        "compressed by our smaller Cmax/Cmin ratios.",
    ),
    (
        "fig17_maxharm",
        "Figure 17 — MaxHarm",
        "BOU can be up to 4x worse than NAT's worst case, but harm occurs "
        "on <1% of locations; SEER's harm never exceeds λ=0.2.",
        "Measured MaxHarm -0.3 to 1.8, and SEER capped at 0.2 as required "
        "by its safety condition.  'Harm on <1% of locations' is not "
        "supported on the exact PIC: 6 of 10 spaces harm more than 1%, and "
        "3D_DS_Q96 harms 11.1%, past the bench's 10% shape check, which "
        "fails there (the candidate PIC read 8.0%).",
    ),
    (
        "fig18_cardinalities",
        "Figure 18 — plan cardinalities",
        "POSP runs to tens/hundreds; SEER is orders smaller; BOU is ≈10 or "
        "fewer even for 5D — effectively dimension-independent.",
        "Measured POSP 25-391, SEER 5-26, BOU 3-9 — the same ordering and "
        "the same dimension-independence of the bouquet size.",
    ),
    (
        "table3_execution",
        "Table 3 — real bouquet execution on 2D_H_Q8a",
        "NAT 579s vs optimal 16s (sub-opt ≈36); basic BOU 117s over 19 "
        "executions; optimized BOU 69s over 12 executions (sub-opt ≈4).",
        "Measured on the real engine (cost units): NAT 64x optimal, basic "
        "BOU 5.1x in 14 executions, optimized BOU 4.2x in 13 partial "
        "executions with contours crossed early via q_run learning — the "
        "same ranking with the intended doubling per contour.  The table "
        "is the paper's account, discovery from the ESS origin, so it is "
        "driven through a service that reports nothing known.  Both error "
        "dimensions here are base-table selections, which the shipped "
        "real-data service measures through the database's indexes before "
        "the first contour (DESIGN decision 12): that run, the last line, "
        "is one execution on the final contour at 1.11x optimal, probe "
        "charge included.  Figures 14-17 are scored on optimizer costs, "
        "where nothing is known before execution, and are unchanged.",
    ),
    (
        "fig19_commercial",
        "Figure 19 — commercial engine (COM)",
        "On a commercial DBMS, NAT/SEER again show large MSO/ASO while BOU "
        "keeps both small with a small bouquet — the results are not "
        "engine artifacts.",
        "With the COM cost model (different constants, merge join disabled), "
        "NAT's MSO is ≈2·10⁴ and SEER is at most 25% lower, while BOU stays "
        "800x+ better on MSO and keeps ASO below 8 with ≤19 plans over the "
        "full four-decade selection dims.",
    ),
    (
        "theorems_bounds",
        "Theorems 1-2 — bounds and lower bound",
        "MSO ≤ r²/(r−1), minimized at r=2 with value 4; no deterministic "
        "online algorithm can guarantee below 4.",
        "The adversarial witness approaches each ratio's bound from below, "
        "the sweep bottoms out at r≈2, and no budget sequence in the family "
        "beats 4.",
    ),
    (
        "sec61_compile_overheads",
        "§6.1 — compile-time overheads",
        "The contour-focused recursive-subdivision strategy optimizes only "
        "a band around each contour, generating the contour-POSP 'within a "
        "few hours even for 5D scenarios' versus intractable exhaustive "
        "enumeration.",
        "The band spends a strict subset of the exhaustive optimizer calls "
        "(30-92% depending on how much of the space the contours sweep) "
        "while pruning dozens of hypercubes and recovering the plans that "
        "matter; its costs are exact wherever it optimized.",
    ),
    (
        "ablation_lambda",
        "Ablation — anorexic threshold λ (§3.3)",
        "λ=20% is the paper's sweet spot: a (1+λ) budget inflation buys a "
        "much smaller ρ.",
        "ρ and |B| shrink monotonically with λ while measured MSO always "
        "respects the λ-adjusted bound.",
    ),
    (
        "ablation_ratio",
        "Ablation — contour ratio r (§3.1)",
        "r=2 minimizes the theoretical bound (Theorem 1).",
        "Fewer contours at larger r, measured MSO within each ratio's bound, "
        "and the smallest bound at r=2.",
    ),
    (
        "ablation_runtime_modes",
        "Ablation — basic vs optimized runtime (§5)",
        "The q_run/AxisPlans/spilling enhancements reduced Table 3's "
        "instance from 19 executions (117s) to 12 (69s); Figure 4's 1D "
        "averages improved from 2.4 to 1.7.",
        "Across sampled locations of four multi-D spaces, the optimized "
        "mode wins the average, the worst case and the execution count on "
        "three and ties all three on the fourth (4D_DS_Q26), and never "
        "violates the bound — matching the paper's per-instance findings "
        "without claiming uniform dominance.",
    ),
    (
        "crossing_trial",
        "Decision — concurrent and time-sliced contour crossing, on trial",
        "§5 runs a contour's plans one after another on one core; the "
        "bounds (Theorem 3, Figure 13) are stated for that schedule.",
        "Neither extra schedule beat one-at-a-time crossing on what it "
        "existed for: time-sliced never beat the optimized driver's MSO and "
        "beat basic sequential on 4 of 10; concurrent's modelled elapsed "
        "MSO (2.83-3.80) did not survive real wall time, where it was "
        "slower than the same basic loop run sequentially on every query. "
        "Both were deleted (DESIGN decision 14); this record is static.",
    ),
    (
        "ext_reopt_comparison",
        "Extension — mid-query re-optimization (ReOpt) vs BOU",
        "§7 argues POP/Rio-style re-optimization 'could be arbitrarily poor' "
        "and excludes it from the evaluation.",
        "Even a charitable ReOpt (perfect checkpoint learning, subtree-only "
        "waste) shows unbounded tails: its worst case reaches 26-114x "
        "optimal on multi-D spaces where the budget-capped bouquet stays "
        "under its guarantee — while ReOpt's averages can beat BOU's when "
        "estimates happen to be good, exactly the §8 trade-off.",
    ),
    (
        "ablation_resolution",
        "Ablation — ESS grid resolution",
        "The paper's guarantees are stated over a continuous ESS; any "
        "implementation discretizes it.",
        "Contour count, bouquet size, and the bound are resolution-"
        "independent; measured MSO stabilizes by the second-finest grid — "
        "the discretization is not doing the work.",
    ),
    (
        "ext_seed_robustness",
        "Extension — robustness across data seeds",
        "(Not in the paper: a reproduction-quality check.)",
        "Under three independently generated databases, BOU's MSO stays "
        "within its bound, 55-200x under NAT's, with a bouquet of <= 4 plans "
        "— the headline claims are not artifacts of one synthetic dataset.",
    ),
    (
        "ext_scale_sensitivity",
        "Extension — database scale sensitivity (§8)",
        "§8 notes the bouquet is inherently robust to data-distribution "
        "changes but needs maintenance under scale-up.",
        "Growing the database steepens the cost gradient and NAT's MSO "
        "roughly triples, while BOU's measured MSO stays pinned under its "
        "scale-independent bound.",
    ),
    (
        "identity_or_recompile",
        "Decision — identity or recompile: the delta re-plan, measured then deleted (§8)",
        "Recomputing from scratch is 'mostly redundant'; incremental "
        "maintenance is left as future work.",
        "With the slab DP a compile is cheap, and the delta re-plan that "
        "carried a bouquet over a drift, a scale-up or a template rebind was "
        "slower than compiling: 1.4-2.2x in all 32 drift cases, 1.8x at both "
        "scale-ups, and a median 1.95 ms against 1.09 ms on serve_churn's "
        "rebinds. It was not bit-equal to the compile in 13 of 32 drift "
        "cases, both scale-ups and 31 of 67 rebinds (keeping plans up to "
        "14.4% costlier). It was deleted "
        "(DESIGN decision 18): an artifact is carried over only when nothing "
        "its compile sees has moved — exact by construction, 0.07 ms against "
        "2.1 ms — and recompiled otherwise. This record is static.",
    ),
    (
        "exact_diagram",
        "Decision — one exact diagram: every moved figure, candidate beside exact",
        "Every figure divides by the PIC, the POSP infimum cost over the "
        "grid (§2).",
        "The Lab used to build its 3D-5D diagrams Picasso-style (4 seeds "
        "per axis, argmin over the harvested plans), whose PIC sat above "
        "the exact one at 3.7-37.7% of cells, by up to 1.40x, and which "
        "missed most of the POSP. It now compiles through compile_bouquet, "
        "one exhaustive slab DP (DESIGN decision 26). The figures that "
        "moved are below, candidate -> exact. Two paper shapes are no "
        "longer supported on the exact PIC, and their checks are reported "
        "failing rather than loosened: Figure 14's 'MSO < 10 on every "
        "query' (5D_DS_Q19 reads 17.87 against its bound 33.6) and "
        "Figure 17's 'harm on a tiny fraction of locations' (3D_DS_Q96 "
        "harms 11.1% of its locations). This record is static.",
    ),
    (
        "ablation_delta",
        "Ablation — bounded cost-model error δ (§3.4)",
        "Bounded modeling error inflates the guarantee by at most (1+δ)²; "
        "δ≈0.4 matches PostgreSQL measurements (Wu et al., ICDE 2013).",
        "With deterministic per-node cost perturbations up to δ=0.4, real "
        "executions stay within the (1+δ)²-inflated bound.",
    ),
]

HEADER = """\
# EXPERIMENTS — paper vs measured

Every table and figure of the paper's evaluation (§6) plus its
analytical results (§3), regenerated by `pytest benchmarks/
--benchmark-only`.  Raw outputs live in `results/` (plus SVG renderings of
the key figures); this file pairs each with the paper's reported
numbers.

**Environment.** Synthetic TPC-H/TPC-DS at small scale (lineitem ≈ 18k
rows), sampled statistics, PostgreSQL-flavoured cost model, ESS grids of
100 (1D) / 30² / 16³ / 9⁴ / 7⁵ points, λ = 20%, r = 2.  Absolute values
therefore differ from the paper's 1GB/100GB testbed; the comparisons
below are about *shape*: who wins, by roughly what factor, and where the
guarantees bind.  All runs are deterministic (seeded data, stable
hashing).

**Headline reproduction.** The bouquet's measured MSO stays within the
`(1+λ)·ρ·r²/(r−1)` guarantee on every space and is 1-4 orders of
magnitude below the native optimizer's; SEER never materially improves
MSO; average-case cost is preserved; the bouquet stays ≈10 plans or
fewer regardless of dimensionality; and on the real engine the optimized
runtime beats the basic one exactly as in Table 3.

---
"""


def main():
    parts = [HEADER]
    for exp_id, title, paper, measured in SECTIONS:
        path = os.path.join(RESULTS, f"{exp_id}.txt")
        if os.path.exists(path):
            with open(path) as handle:
                body = handle.read().strip()
        else:
            body = f"(run `pytest benchmarks/ --benchmark-only` to generate {exp_id})"
        parts.append(
            f"## {title}\n\n"
            f"**Paper:** {paper}\n\n"
            f"**Measured:** {measured}\n\n"
            f"```\n{body}\n```\n"
        )
    with open(TARGET, "w") as handle:
        handle.write("\n".join(parts))
    print(f"wrote {os.path.normpath(TARGET)}")


if __name__ == "__main__":
    main()
