#!/usr/bin/env python
"""Assemble EXPERIMENTS.md from benchmarks/results/*.txt.

Run after ``pytest benchmarks/ --benchmark-only``:

    python scripts/make_experiments.py [--scale 1] [--out EXPERIMENTS.md]

Each benchmark persists its rendered table under ``benchmarks/results/``;
this script stitches them into the experiment report with the paper
reference values and the comparison commentary.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
RESULTS = REPO / "benchmarks" / "results"

SECTIONS = [
    (
        "Table 1 — factorization's share of synthesis time",
        "table1_profile",
        "Paper: algebraic factorization is invoked 9–16 times per script and "
        "averages **61.45%** of total synthesis time. Measured: the mini "
        "synthesis script (sweep / full_simplify (espresso-lite) / simplify / "
        "eliminate / resub / gkx / gcx) invokes factorization 15 times per "
        "circuit and spends ~65–74% of its runtime there — the same "
        "factorization-dominated profile that motivates the paper.",
    ),
    (
        "Table 2 — replicated circuit + divide-and-conquer search",
        "table2_replicated",
        "Paper: quality equal to the 1-processor run (global picture "
        "everywhere), speedups saturating far below linear "
        "(dalu 1.46/1.83/1.97), and spla/ex1010 **did not terminate**. "
        "Measured: identical LC at every processor count, the same "
        "saturating sub-linear speedup shape (the two sync cost parameters "
        "were calibrated on an earlier generator revision of this row; the "
        "current numbers are out-of-sample), and spla/ex1010 exceed the "
        "exhaustive-search budget — the reproduction's DNF.",
    ),
    (
        "Table 3 — independent partitions, no interaction",
        "table3_independent",
        "Paper: biggest speedups (average 8.63 at 6 processors, 16.30 on "
        "ex1010), super-linear because each processor searches a much "
        "smaller matrix; ~2% average quality loss growing with partition "
        "count. Measured: the same super-linear growth (up to ~11× at 6 "
        "processors), and LC strictly degrading as partitions increase on "
        "every circuit.",
    ),
    (
        "Table 4 — L-shaped decomposition quality (single processor)",
        "table4_lshape_quality",
        "Paper: 2/4/6-way L-shaped extraction matches SIS within noise "
        "(avg ratio 0.691–0.692 vs 0.690). Measured: within ~1% of the "
        "sequential baseline on every circuit, sometimes better (the "
        "L-shape focuses the search, as the paper notes for seq).",
    ),
    (
        "Table 6 — the L-shaped parallel algorithm",
        "table6_lshaped_parallel",
        "Paper: near-sequential quality (<0.2% loss on ex1010) at an "
        "average 6.47× speedup on 6 processors — between algorithms 1 "
        "and 2. Measured: quality within ~1% of sequential everywhere "
        "(better on several circuits), speedups between the replicated "
        "and independent algorithms' at every processor count.",
    ),
    (
        "Equation 3 — analytic speedup model",
        "eq3_speedup_model",
        "Paper: S(p) = p²/(1 + γ(p−1)/(2αp))², proof omitted, sparsities "
        "α (full matrix) and γ (L-shaped matrix). Measured: with the one "
        "free ratio fitted on the measured speedups, the analytic curve "
        "tracks the measured monotone growth; raw sparsities are also "
        "reported per p.",
    ),
    (
        "Figure 1 — search-space decomposition by leftmost column",
        "fig1_search_split",
        "The per-stripe bests always contain the global best (the "
        "decomposition is exact), and per-processor tree sizes shrink as "
        "stripes narrow — the replicated algorithm's source of "
        "parallelism.",
    ),
    (
        "Figures 2–4 — the worked example's matrices",
        "fig2_fig4_worked_example",
        "The Equation 1 network's KC matrix under the {F}/{G,H} partition "
        "(Figure 2) and the L-shaped matrices for Example 5.1's partition "
        "(Figures 3/4), with offset labels and the vertical legs visible.",
    ),
    (
        "Ablation — rectangle searcher",
        "ablation_search",
        "Exhaustive search buys a little quality over ping-pong for a lot "
        "of modeled time; this is why the SIS baseline (and the paper) use "
        "the heuristic, and why algorithm 1's exhaustive search DNFs on "
        "big circuits.",
    ),
    (
        "Ablation — the L-shape's vertical leg",
        "ablation_lleg",
        "Removing the leg and the overlap (each processor keeps only its "
        "own rows over its owned columns) collapses quality dramatically: "
        "column ownership without the leg is *worse* than no ownership at "
        "all, because a processor whose kernel-cubes are owned elsewhere "
        "cannot extract them. The L's two arms are load-bearing together.",
    ),
    (
        "Ablation — the zero-cost profitability re-check",
        "ablation_recheck",
        "Disabling the Section 5.3 re-check (always add covered cubes back "
        "before dividing) reproduces the Example 5.2 pathology in the "
        "aggregate.",
    ),
    (
        "Ablation — min-cut vs random partitioning",
        "ablation_partitioner",
        "Min-cut partitioning yields smaller cuts; factorization quality "
        "of the independent algorithm tracks cut quality on the "
        "multi-level circuits.",
    ),
    (
        "Ablation — power-driven extraction (extension)",
        "ablation_power",
        "The conclusion's low-power claim implemented: activity-weighted "
        "rectangle values. The power objective matches or beats the area "
        "objective on switched capacitance while staying close on "
        "literal count.",
    ),
    (
        "Ablation — timing-driven extraction (extension)",
        "ablation_timing",
        "The conclusion's claim implemented: extraction under a unit-delay "
        "critical-depth budget. Unlimited budget recovers the area-driven "
        "literal count; tightening it trades literals for depth.",
    ),
]

HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction of Roy & Banerjee, *A Comparison of Parallel Approaches for
Algebraic Factorization in Logic Synthesis* (IPPS 1997).

How to regenerate everything below:

```bash
pytest benchmarks/ --benchmark-only          # full scale (~15–25 min)
python scripts/make_experiments.py           # rebuild this file
```

Context for reading the numbers:

- Circuits are deterministic synthetic stand-ins with the paper's
  *initial* literal counts (MCNC netlists are not redistributable); the
  planted-kernel generator makes them more compressible than the real
  benchmarks, so absolute final LCs sit below the paper's. **Shapes** —
  which algorithm wins, how quality moves with processor count, where
  the DNFs land — are the reproduction target.
- Speedups are measured from per-processor operation counts of the
  faithfully executed algorithms on the simulated shared-memory machine
  (single-CPU + GIL host; see README "How speedups are measured").  Two
  sync parameters were calibrated once against the paper's Table 2 dalu
  row; everything else is out-of-sample.
- Every algorithm run in these tables is equivalence-checked against the
  original network in the test suite.
- Table 1 (`table1_profile`), `bench_rectsearch` and
  `phases_table6@*.json` carry host time and differ run to run; every
  other file under `benchmarks/results/` comes from the virtual clock
  and literal counts and is exact, and CI regenerates the scale-0.1
  copies and fails on any byte difference.

"""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", default="1")
    parser.add_argument("--out", default=str(REPO / "EXPERIMENTS.md"))
    args = parser.parse_args()

    parts = [HEADER]
    missing = []
    for title, stem, commentary in SECTIONS:
        path = RESULTS / f"{stem}@{args.scale}.txt"
        parts.append(f"## {title}\n")
        parts.append(commentary + "\n")
        if path.exists():
            parts.append("```text")
            parts.append(path.read_text().rstrip())
            parts.append("```\n")
        else:
            missing.append(path.name)
            parts.append(f"*(missing: run the benchmark that writes "
                         f"`benchmarks/results/{path.name}`)*\n")
    pathlib.Path(args.out).write_text("\n".join(parts))
    print(f"wrote {args.out}" + (f" ({len(missing)} sections missing)" if missing else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
