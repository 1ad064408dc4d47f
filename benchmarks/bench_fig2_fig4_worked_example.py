"""Figures 2–4 — the worked example's matrices, regenerated exactly.

- Figure 2: the row-sliced KC matrix of the Equation 1 network under the
  {F} / {G, H} partition (disjoint per-processor label spaces).
- Figure 3/4: the L-shaped matrices after greedy cube ownership and the
  B_ij exchange for the {G, H} / {F} partition of Example 5.1.

The bench prints both matrices in the paper's layout and asserts the
structural facts the figures illustrate (offset labels, ownership
disjointness, the vertical leg).
"""

from benchmarks.conftest import emit, run_once
from repro.algebra.sop import format_sop
from repro.circuits.examples import (
    example41_partition,
    example51_partition,
    paper_example_network,
)
from repro.machine.simulator import SimulatedMachine
from repro.parallel.lshaped import build_lshaped_matrices
from repro.rectangles.kcmatrix import LABEL_OFFSET, build_kc_matrix


def render_matrix(mat, names, title):
    lines = [title]
    cols = sorted(mat.cols)
    header = f"{'row':>8s} {'node':>5s} {'cokernel':>9s} | " + " ".join(
        f"{format_sop((mat.cols[c],), names):>4s}" for c in cols
    )
    lines.append(header)
    lines.append("-" * len(header))
    for r in sorted(mat.rows):
        info = mat.rows[r]
        ck = format_sop((info.cokernel,), names)
        cells = " ".join(
            f"{'x':>4s}" if mat.has_entry(r, c) else f"{'.':>4s}" for c in cols
        )
        lines.append(f"{r:>8d} {info.node:>5s} {ck:>9s} | {cells}")
    return "\n".join(lines)


def worked_example():
    net = paper_example_network()
    names = [net.table.name_of(i) for i in range(len(net.table))]
    out = []

    # Figure 2: independent row slices.
    p0, p1 = example41_partition()
    m0 = build_kc_matrix(net, nodes=p0, pid=0)
    m1 = build_kc_matrix(net, nodes=p1, pid=1)
    assert all(r < LABEL_OFFSET for r in m0.rows)
    assert all(r > LABEL_OFFSET for r in m1.rows)
    out.append(render_matrix(m0, names, "Figure 2 (top block): processor 0 = {F}"))
    out.append(render_matrix(m1, names, "Figure 2 (bottom block): processor 1 = {G, H}"))

    # Figures 3/4: L-shaped matrices for Example 5.1's partition.
    blocks = list(example51_partition())
    machine = SimulatedMachine(2)
    setup = build_lshaped_matrices(machine, net, blocks, {})
    owned0 = {setup.matrices[0].cols[c] for c in setup.owned_cols[0]}
    owned1 = {setup.matrices[1].cols[c] for c in setup.owned_cols[1]}
    assert not owned0 & owned1, "cube ownership must be disjoint"
    # the vertical leg: proc 0's matrix contains F's rows
    assert any(i.node == "F" for i in setup.matrices[0].rows.values())
    for pid, mat in enumerate(setup.matrices):
        out.append(
            render_matrix(
                mat, names,
                f"Figure 4: L-shaped matrix of processor {pid} "
                f"(alpha={setup.alpha:.3f}, gamma={setup.gamma:.3f})",
            )
        )
    return "\n\n".join(out)


def test_fig2_fig4_worked_example(benchmark):
    report = run_once(benchmark, worked_example)
    emit('fig2_fig4_worked_example', report)
