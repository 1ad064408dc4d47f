#!/usr/bin/env python
"""Time the rectangle searches (exhaustive, ping-pong), kernel-gen and kc-build; write BENCH_rectsearch.json.

Usage:

    PYTHONPATH=src python scripts/perf_check.py            # full suite
    PYTHONPATH=src python scripts/perf_check.py --quick    # CI smoke suite
    PYTHONPATH=src python scripts/perf_check.py --check    # non-zero exit on regression

The full suite writes ``benchmarks/results/BENCH_rectsearch.json`` unless
``--out`` says otherwise; a ``--quick`` run writes a file only when given
``--out``, so it never replaces the committed full-suite rows.

``--check`` fails (exit 1) when disabled tracing, the disabled
fault-injection or journal gates, or the always-on flight recorder are
estimated to cost more than their budgets (2% each), or when the
kc-build row's patch time exceeds half of rebuilding every matrix
version from scratch — the CI perf-smoke gates.

With ``REPRO_TRACE=1`` in the environment the timed runs are traced and
every workload row in the JSON carries its phase breakdown and hot-loop
counters alongside its timing.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.harness.perfcheck import (
    OVERHEAD_GATES,
    render_report,
    run_perf_check,
    write_report,
)

FULL_SUITE_OUT = REPO_ROOT / "benchmarks" / "results" / "BENCH_rectsearch.json"


def default_out(quick: bool):
    """Where a run without ``--out`` writes: the committed file, or nowhere."""
    return None if quick else FULL_SUITE_OUT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="run the miniature CI smoke suite instead of the full one",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if an overhead gate or the kc-build gate fails",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="output JSON path (default: benchmarks/results/BENCH_rectsearch.json "
             "for the full suite, no file for --quick)",
    )
    args = parser.parse_args(argv)

    report = run_perf_check(quick=args.quick)
    print(render_report(report))
    out = args.out or default_out(args.quick)
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        write_report(report, out)
        print(f"wrote {out}")

    if args.check:
        gate = report["kc_build"]
        if not gate["ok"]:
            print(
                f"FAIL: {gate['label']} takes {gate['ratio']:.3f} of a "
                f"rebuild of every version, limit {gate['max_ratio']:.2f}",
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
