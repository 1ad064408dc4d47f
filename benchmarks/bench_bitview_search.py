"""Perf harness for the rectangle searches.

Times the BENCH_rectsearch workload suite: the pruned exhaustive search
where the replicated algorithm finishes and budget-truncated exhaustive
search in the paper's DNF regime (spla/ex1010), plus the ping-pong
heuristic the sequential baseline and the timing-driven loop run, the
kernel-gen row (``kernels()`` over the node expressions of one
sequential run) and the kc-build row: the KC store patched through that
run.

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
