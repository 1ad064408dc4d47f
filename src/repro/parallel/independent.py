"""Section 4 — kernel extraction on independent circuit partitions.

The circuit graph is min-cut partitioned into *n* blocks; each processor
runs the full sequential greedy extraction loop on its own block with no
interaction whatsoever.  Conceptually each processor sees only a
horizontal row-slice of the global KC matrix (Figure 2), so:

- rectangles spanning partitions are lost (Example 4.1's
  ``{(6,11)(1,3)}``), and
- the same kernel may be extracted separately in several blocks
  (duplicated kernels — ``a+b`` in Equation 2).

The benefit is that each block's matrix is far smaller and the rectangle
search is super-linear in matrix size, which is where the paper's
super-linear speedups (16.3× on ex1010) come from — reproduced here as
measured per-processor work under the shared cost model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.faults import note_control_resync, resolve_fault_injector
from repro.machine.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.machine.simulator import SimulatedMachine
from repro.network.boolean_network import BooleanNetwork
from repro.obs.tracer import Tracer
from repro.parallel.common import ParallelRunResult, partition_network_nodes
from repro.rectangles.cover import kernel_extract


def _count_duplicate_kernels(network: BooleanNetwork, prefixes) -> int:
    """How many extracted kernel expressions appear in >1 partition.

    *prefixes* holds one ``str.startswith`` argument per partition — a
    string, or a tuple of strings when recovery re-factored the block
    under a distinct prefix.
    """
    seen: Dict[Tuple, List[int]] = {}
    for pid, prefix in enumerate(prefixes):
        for name, expr in network.nodes.items():
            if name.startswith(prefix):
                seen.setdefault(expr, []).append(pid)
    return sum(1 for procs in seen.values() if len(set(procs)) > 1)


def independent_kernel_extract(
    network: BooleanNetwork,
    nprocs: int,
    model: CostModel = DEFAULT_COST_MODEL,
    seed: int = 0,
    partitioner: str = "mincut",
    max_seeds: Optional[int] = 64,
    tracer: Optional["Tracer"] = None,
    faults=None,
) -> ParallelRunResult:
    """Run the no-interaction partitioned algorithm on a copy.

    The master (processor 0) partitions the circuit and distributes the
    blocks; every processor then factors its block to completion without
    communicating.  Parallel time = partition + distribution + the
    slowest block's extraction.  Pass ``tracer`` (or set
    ``REPRO_TRACE=1``) to record per-processor spans.

    ``faults`` accepts a :class:`~repro.faults.plan.FaultPlan` or
    :class:`~repro.faults.injector.FaultInjector` (default ``None``:
    fault-free).  With faults active a gather barrier
    follows the factor phase; blocks orphaned by a crash are re-factored
    by survivors under per-block recovery prefixes.
    """
    work_net = network.copy()
    machine = SimulatedMachine(
        nprocs, model, tracer=tracer, faults=resolve_fault_injector(faults)
    )
    initial_lc = work_net.literal_count()

    # Master partitions the circuit; the FM passes charge processor 0.
    blocks = machine.run_phase(
        lambda proc: partition_network_nodes(
            work_net, nprocs, seed=seed, partitioner=partitioner, meter=proc.meter
        ),
        name="partition",
        procs=[0],
    )[0]
    # Distribution: the master ships each block's share of the netlist.
    for pid in range(1, nprocs):
        words = sum(work_net.literal_count(n) for n in blocks[pid])
        if not machine.send(0, pid, words, name="distribute"):
            note_control_resync(machine, pid, "distribute")

    prefixes = [f"[p{pid}_" for pid in range(nprocs)]
    extractions = 0

    def factor_block(proc):
        nonlocal extractions
        block = blocks[proc.pid]
        if not block:
            return None
        res = kernel_extract(
            work_net,
            nodes=block,
            searcher="pingpong",
            meter=proc.meter,
            name_prefix=prefixes[proc.pid],
            max_seeds=max_seeds,
        )
        extractions += res.iterations
        return res

    results = machine.run_phase(factor_block, name="factor")
    count_prefixes = list(prefixes)
    fa = machine.faults
    if fa is not None:
        # Crashes surface at this barrier (the algorithm proper has
        # none); orphaned blocks — dead owner, work never finished — are
        # re-factored by survivors.  Recovery prefixes stay distinct so
        # extracted node names never collide, but count as the original
        # partition for duplicate-kernel accounting.
        machine.barrier("gather-sync")
        newly = machine.take_detected()
        orphaned = [
            pid for pid in newly if blocks[pid] and results[pid] is None
        ]
        alive = machine.alive_pids()
        assign = {pid: alive[i % len(alive)] for i, pid in enumerate(orphaned)}
        if orphaned:
            def refactor(proc):
                nonlocal extractions
                for opid in sorted(assign):
                    if assign[opid] != proc.pid:
                        continue
                    res = kernel_extract(
                        work_net,
                        nodes=[n for n in blocks[opid] if n in work_net.nodes],
                        searcher="pingpong",
                        meter=proc.meter,
                        name_prefix=f"[p{opid}r_",
                        max_seeds=max_seeds,
                    )
                    extractions += res.iterations
            machine.run_phase(refactor, name="recovery-factor", procs=alive)
            for opid in orphaned:
                count_prefixes[opid] = (prefixes[opid], f"[p{opid}r_")
        for pid in newly:
            if pid in orphaned:
                fa.note_recovery(
                    "refactor", machine, pid=assign[pid],
                    for_kinds=("crash",),
                    detail=f"block {pid} re-factored by p{assign[pid]}",
                )
            else:
                fa.note_recovery(
                    "retire", machine, pid=pid, for_kinds=("crash",),
                    detail="crashed after its block completed",
                )
    duplicates = _count_duplicate_kernels(work_net, count_prefixes)

    return ParallelRunResult(
        algorithm="independent",
        nprocs=nprocs,
        network=work_net,
        initial_lc=initial_lc,
        final_lc=work_net.literal_count(),
        parallel_time=machine.elapsed(),
        sequential_time=0.0,  # caller fills with the SIS baseline
        extractions=extractions,
        details={"duplicate_kernels": float(duplicates)},
        proc_clocks=[p.clock for p in machine.procs],
    )
