"""Simulated shared-memory multiprocessor.

The paper measured on a SUN SPARCserver 1000E.  This reproduction runs
each parallel algorithm *faithfully* (every processor executes its real
work on real data structures) but accounts time on a deterministic
virtual machine: each virtual processor owns a :class:`CostMeter` charged
by the instrumented algebra/search kernels, and synchronization
primitives (barrier, broadcast, point-to-point send) combine the
per-processor clocks with a calibrated :class:`CostModel`.

Speedups reported by the benchmarks are therefore *measured* from
per-processor operation counts of the actual execution — the shape of
the paper's results (sync-bound replication, super-linear independent
partitions, intermediate L-shaped) emerges from the algorithms, not from
hard-coded constants.
"""

from repro.machine.costmodel import CostMeter, CostModel, DEFAULT_COST_MODEL
from repro.machine.simulator import SimulatedMachine, VirtualProcessor, PhaseReport

__all__ = [
    "CostMeter",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "SimulatedMachine",
    "VirtualProcessor",
    "PhaseReport",
]
