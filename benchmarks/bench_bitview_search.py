"""Perf regression harness — v1 full enumeration vs the v2 pruned search.

Times the BENCH_rectsearch workload suite: exhaustive search where the
replicated algorithm finishes and budget-truncated exhaustive search in
the paper's DNF regime (spla/ex1010), each run as v1 (``prune=False``)
and as the default v2 branch-and-bound search, plus the ping-pong
heuristic the sequential baseline and the timing-driven loop run.
Every exhaustive workload cross-checks that v2 is equal-or-better than
v1, so this doubles as an end-to-end differential test on real
matrices.

The committed ``benchmarks/results/BENCH_rectsearch.json`` is the full
suite at scale 1; runs with ``REPRO_SCALE < 1`` use the quick smoke
suite and do not overwrite it.
"""

from benchmarks.conftest import RESULTS_DIR, bench_scale, emit, run_once
from repro.harness.perfcheck import render_report, run_perf_check, write_report


def test_bitview_search_speedup(benchmark):
    quick = bench_scale() < 1.0
    report = run_once(benchmark, lambda: run_perf_check(quick=quick))
    emit("bench_rectsearch", render_report(report))
    if not quick:
        RESULTS_DIR.mkdir(exist_ok=True)
        write_report(report, RESULTS_DIR / "BENCH_rectsearch.json")
    assert report["all_v2_match"], "v2 disagrees with v1 on a workload"
    assert report["geomean_speedup_v2"] > 1.0, (
        f"v2 slower than v1: {report['geomean_speedup_v2']:.2f}x"
    )
