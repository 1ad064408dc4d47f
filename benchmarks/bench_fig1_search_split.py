"""Figure 1 — decomposing the rectangle search space by leftmost column.

The figure's claim, checked quantitatively: (a) the per-stripe searches
exactly cover the search space (the best over stripes equals the global
best), and (b) the per-processor tree sizes shrink as stripes narrow —
the source of the replicated algorithm's (limited) parallelism.
"""

from benchmarks.conftest import bench_scale, emit, run_once
from repro.harness.experiments import get_circuit
from repro.harness.tables import Table
from repro.machine.costmodel import CostMeter
from repro.rectangles.kcmatrix import build_kc_matrix
from repro.rectangles.search import best_rectangle_exhaustive, column_stripe_bounds


def split_report():
    net = get_circuit("dalu", min(bench_scale(), 0.5))
    matrix = build_kc_matrix(net)
    table = Table(
        title="Figure 1 — leftmost-column decomposition of the search tree",
        columns=["stripes", "best gain", "matches global", "max tree nodes",
                 "sum tree nodes"],
    )
    global_best = best_rectangle_exhaustive(matrix)
    for n in (1, 2, 3, 4, 6):
        best = None
        sizes = []
        for bounds in column_stripe_bounds(matrix, n):
            if bounds is None:
                sizes.append(0)
                continue
            meter = CostMeter()
            got = best_rectangle_exhaustive(
                matrix, anchor_range=bounds, meter=meter
            )
            sizes.append(meter.counts.get("search_node", 0))
            if got and (best is None or got[1] > best[1]):
                best = got
        table.add_row(
            n, best[1] if best else None,
            str(best is not None and best[1] == global_best[1]),
            int(max(sizes)), int(sum(sizes)),
        )
    return table


def test_fig1_search_decomposition(benchmark):
    table = run_once(benchmark, split_report)
    emit('fig1_search_split', table.render())
