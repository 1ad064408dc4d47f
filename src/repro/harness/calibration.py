"""Cost-weight calibration from wall-clock profiles.

`repro.machine.costmodel.DEFAULT_WEIGHTS` encodes how expensive each
instrumented operation is relative to the others.  This module contains
the procedure those relative magnitudes came from, kept runnable so the
model can be re-derived on new hardware or after optimization work
(the profile-first workflow the project follows):

1. run each micro-workload, measuring wall-clock and the operation
   counts its meter records;
2. solve per-kind unit costs (seconds per op) from workloads dominated
   by a single kind;
3. normalize to ``kernel_cube_visit`` = 1.0.

The synchronization parameters (barrier/transfer costs) are *not*
derivable from single-process profiles — those two were calibrated
against the paper's Table 2 dalu speedups and are documented in
DESIGN.md §4b.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.circuits.generators import GeneratorSpec, generate_circuit
from repro.machine.costmodel import CostMeter


@dataclass(frozen=True)
class ProfilePoint:
    """One micro-workload's measurement."""

    name: str
    seconds: float
    counts: Dict[str, float]

    def dominant_kind(self) -> str:
        return max(self.counts, key=lambda k: self.counts[k])


def _workload_circuit(seed: int = 77):
    return generate_circuit(
        GeneratorSpec(
            name="calib", seed=seed, n_inputs=16, target_lc=900, pool_size=8
        )
    )


def profile_workloads(repeats: int = 3) -> List[ProfilePoint]:
    """Run the calibration micro-workloads; return their profiles.

    Each workload exercises predominantly one charge kind: kernel
    enumeration, KC-matrix build, exhaustive search, ping-pong search,
    and network division.
    """
    from repro.algebra.kernels import kernels
    from repro.rectangles.cover import apply_rectangle
    from repro.rectangles.kcmatrix import build_kc_matrix
    from repro.rectangles.pingpong import best_rectangle_pingpong
    from repro.rectangles.search import best_rectangle_exhaustive

    net = _workload_circuit()
    matrix = build_kc_matrix(net)

    def w_kernels(meter):
        for n in net.nodes:
            kernels(net.nodes[n], meter=meter)

    def w_matrix(meter):
        build_kc_matrix(net, meter=meter)

    def w_exhaustive(meter):
        # Drop the derived tables (the sorted compile and the anchor
        # records), so each repeat compiles and walks every anchor
        # instead of replaying the last search.
        matrix._touch()
        best_rectangle_exhaustive(matrix, meter=meter)

    def w_pingpong(meter):
        # Drop the seed potentials and ascent records, so each repeat
        # runs every seed's ascent instead of replaying the last.
        matrix._touch()
        best_rectangle_pingpong(matrix, max_seeds=64, meter=meter)

    def w_divide(meter):
        work = net.copy()
        m = build_kc_matrix(work)
        got = best_rectangle_pingpong(m, max_seeds=16)
        if got:
            applied = apply_rectangle(work, m, got[0])
            meter.charge("divide_node", len(applied.modified_nodes))

    out: List[ProfilePoint] = []
    for name, fn in [
        ("kernels", w_kernels),
        ("matrix", w_matrix),
        ("exhaustive", w_exhaustive),
        ("pingpong", w_pingpong),
        ("divide", w_divide),
    ]:
        meter = CostMeter()
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn(meter)
        dt = (time.perf_counter() - t0) / repeats
        out.append(ProfilePoint(name=name, seconds=dt, counts=meter.snapshot()))
    return out


def derive_weights(points: List[ProfilePoint]) -> Dict[str, float]:
    """Per-kind unit costs normalized to kernel_cube_visit = 1.0.

    Each workload attributes its whole wall-clock to its dominant kind —
    a deliberate simplification that matches how the frozen weights were
    originally eyeballed; it yields order-of-magnitude-correct relative
    costs, which is all the speedup ratios need.
    """
    unit: Dict[str, float] = {}
    for p in points:
        kind = p.dominant_kind()
        n = p.counts[kind]
        if n > 0:
            unit[kind] = p.seconds / n
    base = unit.get("kernel_cube_visit")
    if not base:
        raise ValueError("profiles lack a kernel_cube_visit-dominated workload")
    return {k: v / base for k, v in unit.items()}
