"""The three parallel kernel-extraction algorithms of the paper.

All three run faithfully on the simulated shared-memory machine
(:mod:`repro.machine`): every virtual processor performs its real work on
real data structures, charging its own clock, and synchronization costs
come from the machine's cost model.  Each algorithm returns a
:class:`~repro.parallel.common.ParallelRunResult` carrying the optimized
network, the final literal count, the simulated parallel time and the
matched sequential baseline time — everything the paper's tables report.

- :mod:`~repro.parallel.replicated` — Section 3: replicated circuit +
  divide-and-conquer rectangle search, barrier per extraction step.
- :mod:`~repro.parallel.independent` — Section 4: min-cut partitions
  factored with no interaction.
- :mod:`~repro.parallel.lshaped` — Section 5: L-shaped partitioning of
  the KC matrix with speculative cube states and partial-rectangle
  forwarding (the paper's contribution).
"""

from repro.parallel.common import ParallelRunResult, sequential_baseline
from repro.parallel.replicated import replicated_kernel_extract
from repro.parallel.independent import independent_kernel_extract
from repro.parallel.lshaped import (
    lshaped_kernel_extract,
    lshaped_quality_single_processor,
)

__all__ = [
    "ParallelRunResult",
    "sequential_baseline",
    "replicated_kernel_extract",
    "independent_kernel_extract",
    "lshaped_kernel_extract",
    "lshaped_quality_single_processor",
]
