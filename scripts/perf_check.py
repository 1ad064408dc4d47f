#!/usr/bin/env python
"""Time the rectangle searches (v1 vs v2 exhaustive, ping-pong); write BENCH_rectsearch.json.

Usage:

    PYTHONPATH=src python scripts/perf_check.py            # full suite
    PYTHONPATH=src python scripts/perf_check.py --quick    # CI smoke suite
    PYTHONPATH=src python scripts/perf_check.py --check    # non-zero exit on regression

``--check`` fails (exit 1) when the v2 branch-and-bound search's
geomean speedup over v1 full enumeration falls below
``--min-v2-speedup`` (default 1.4) or its results are not
equal-or-better on any exhaustive workload, when
disabled tracing, the disabled fault-injection or journal gates, or the
always-on flight recorder are estimated to cost more than their budgets
(2% each) — the CI perf-smoke gate.

With ``REPRO_TRACE=1`` in the environment the timed runs are traced and
every workload row in the JSON carries its phase breakdown and hot-loop
counters alongside the speedup.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.harness.perfcheck import (
    MIN_V2_SPEEDUP,
    OVERHEAD_GATES,
    render_report,
    run_perf_check,
    write_report,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="run the miniature CI smoke suite instead of the full one",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if v2 is slower than required, v1 and v2 disagree, "
             "or an overhead gate fails",
    )
    parser.add_argument(
        "--min-v2-speedup", type=float, default=MIN_V2_SPEEDUP,
        help="geomean speedup the v2 pruned search must show over v1 "
             f"full enumeration under --check (default {MIN_V2_SPEEDUP})",
    )
    parser.add_argument(
        "--out", type=pathlib.Path,
        default=REPO_ROOT / "benchmarks" / "results" / "BENCH_rectsearch.json",
        help="output JSON path (default benchmarks/results/BENCH_rectsearch.json)",
    )
    args = parser.parse_args(argv)

    report = run_perf_check(quick=args.quick)
    print(render_report(report))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_report(report, args.out)
    print(f"wrote {args.out}")

    if args.check:
        if not report["all_v2_match"]:
            print(
                "FAIL: v2 pruned search is not equal-or-better on at least "
                "one exhaustive workload",
                file=sys.stderr,
            )
            return 1
        if report["geomean_speedup_v2"] < args.min_v2_speedup:
            print(
                f"FAIL: v2 geomean speedup "
                f"{report['geomean_speedup_v2']:.2f}x < required "
                f"{args.min_v2_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
        for key, *_ in OVERHEAD_GATES:
            overhead = report[key]
            if not overhead["ok"]:
                print(
                    f"FAIL: {overhead['label']} overhead "
                    f"{100 * overhead['estimated_overhead']:.3f}% exceeds "
                    f"{100 * overhead['max_overhead']:.0f}%",
                    file=sys.stderr,
                )
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
