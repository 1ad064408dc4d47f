"""Section 3 — parallel kernel extraction using a replicated circuit.

Every processor holds the whole circuit and the whole KC matrix.  Work is
split two ways:

1. *Kernel generation*: nodes are dealt round-robin; each processor
   enumerates kernels for its nodes and broadcasts them.  Every replica
   labels a node's rows (and the columns it meets first) in its owner's
   label space, so all replicas agree regardless of generation order.
   The host builds the replica once and then patches only the rows of
   the nodes each extraction rewrites
   (:class:`~repro.rectangles.kcmatrix.IncrementalKCMatrix` with an
   owner map); the simulated clocks still price the paper's full
   per-step rebuild on every processor.
2. *Rectangle search*: the exhaustive search tree is decomposed by
   leftmost column (Figure 1); processor *p* explores rectangles anchored
   in its column stripe.  On the host each stripe search replays the
   anchors the last patch left unchanged
   (:func:`~repro.rectangles.search.best_rectangle_exhaustive`), while
   every clock is still charged each node of the full search.  The
   per-processor bests are reduced, the winner broadcast, and **every**
   processor divides its own replica — that division and the per-step
   barrier are the redundant, serializing work the paper blames for the
   poor speedup.

The exhaustive search carries a global :class:`SearchBudget`;
exceeding it raises :class:`BudgetExceeded`, reproducing the paper's
"did not terminate" entries for spla and ex1010.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.algebra.kernels import Kernel, kernels
from repro.faults import resolve_fault_injector
from repro.machine.costmodel import CostMeter, CostModel, DEFAULT_COST_MODEL
from repro.machine.simulator import SimulatedMachine
from repro.obs.tracer import Tracer
from repro.network.boolean_network import BooleanNetwork
from repro.parallel.common import ParallelRunResult
from repro.rectangles.cover import apply_rectangle
from repro.rectangles.kcmatrix import IncrementalKCMatrix, build_kc_matrix
from repro.rectangles.rectangle import Rectangle
from repro.rectangles.search import (
    BudgetExceeded,
    SearchBudget,
    best_rectangle_exhaustive,
    column_stripe_bounds,
)
from repro.verify import audit as _audit


def _generate_kernels_partitioned(
    machine: SimulatedMachine,
    network: BooleanNetwork,
    nodes: List[str],
    cache: Dict[str, List[Kernel]],
) -> None:
    """Deal *nodes* round-robin; each vproc enumerates its share.

    Results land in the shared *cache* (the replicas are identical, so
    one copy suffices for correctness; each processor is charged for its
    own share and then broadcasts it).
    """
    alive = machine.alive_pids()
    shares: List[List[str]] = [[] for _ in range(machine.nprocs)]
    ordered = sorted(nodes)
    for i, n in enumerate(ordered):
        shares[alive[i % len(alive)]].append(n)

    def work(proc):
        produced = 0
        for n in shares[proc.pid]:
            ks = kernels(network.nodes[n], meter=proc.meter)
            cache[n] = ks
            produced += sum(k.num_cubes for k in ks)
        return produced

    payloads = machine.run_phase(work, name="kernel-gen")
    fa = machine.faults
    if fa is not None:
        # A processor that crashed at the kernel-gen tick leaves its
        # share un-enumerated; the lowest survivor regenerates it so the
        # replica patch below never misses a cache entry.
        while True:
            missing = [n for n in ordered if n not in cache]
            if not missing:
                break
            regen_pid = machine.lowest_alive()

            def regen(proc):
                for n in missing:
                    cache[n] = kernels(network.nodes[n], meter=proc.meter)

            machine.run_phase(regen, name="kernel-regen", procs=[regen_pid])
            fa.note_recovery(
                "regen", machine, pid=regen_pid, consume=False,
                detail=f"{len(missing)} shares regenerated",
            )
    for pid, words in enumerate(payloads):
        if words:
            machine.broadcast(pid, words, name="kernel-bcast")
    machine.barrier("kernel-sync")


def replicated_kernel_extract(
    network: BooleanNetwork,
    nprocs: int,
    model: CostModel = DEFAULT_COST_MODEL,
    search_budget: Optional[int] = 5_000_000,
    min_gain: int = 1,
    max_iterations: Optional[int] = None,
    tracer: Optional["Tracer"] = None,
    faults=None,
) -> ParallelRunResult:
    """Run the replicated-circuit algorithm on a copy of *network*.

    Raises :class:`BudgetExceeded` when the exhaustive search blows the
    budget (the paper's DNF rows) — callers report "—".  Pass ``tracer``
    (or set ``REPRO_TRACE=1``) to record per-processor spans.

    ``faults`` accepts a :class:`~repro.faults.plan.FaultPlan` or
    :class:`~repro.faults.injector.FaultInjector` (default ``None``:
    fault-free).  Because every replica is complete,
    recovery is redistribution: crashed processors' kernel shares and
    column stripes are re-dealt to survivors at the next step barrier.
    """
    work_net = network.copy()
    machine = SimulatedMachine(
        nprocs, model, tracer=tracer, faults=resolve_fault_injector(faults)
    )
    budget = SearchBudget(search_budget) if search_budget is not None else None
    pending = sorted(work_net.nodes)
    node_owner = {n: i % nprocs for i, n in enumerate(pending)}
    initial_lc = work_net.literal_count()
    extractions = 0
    kc: Optional[IncrementalKCMatrix] = None

    while max_iterations is None or extractions < max_iterations:
        fresh: Dict[str, List[Kernel]] = {}
        _generate_kernels_partitioned(machine, work_net, pending, fresh)
        # Each replica is patched in the pending nodes' rows only, with
        # labels that sort like a per-owner rebuild.
        if kc is None:
            kc = IncrementalKCMatrix(fresh, owner=node_owner)
        else:
            kc.replace_nodes(fresh)
        matrix = kc.matrix
        # The paper's processors each rebuild the whole replica: price
        # one kc_entry per entry of the current matrix on every clock.
        probe = CostMeter()
        if matrix.num_entries:
            probe.charge("kc_entry", matrix.num_entries)
        machine.charge_all(probe, name="kc-build")
        if _audit.enabled():
            # Re-enumerate every kernel: a node missing from *pending*
            # would keep a stale list in kc.kernels.
            _audit.audit_kc_order(
                matrix,
                build_kc_matrix(work_net, sorted(work_net.nodes), owner=node_owner),
            )
        alive = machine.alive_pids()
        stripes = column_stripe_bounds(matrix, len(alive))
        stripe_of = {pid: stripes[i] for i, pid in enumerate(alive)}

        def search(proc):
            stripe = stripe_of.get(proc.pid)
            if stripe is None:
                return None
            return best_rectangle_exhaustive(
                matrix,
                anchor_range=stripe,
                budget=budget,
                meter=proc.meter,
            )

        candidates = machine.run_phase(search, name="rect-search")
        best: Optional[Tuple[Rectangle, int]] = None
        best_pid = -1
        for pid, cand in enumerate(candidates):
            if cand is None:
                continue
            if best is None or cand[1] > best[1]:
                best, best_pid = cand, pid
        # Winner propagates up the reduction tree and is broadcast.
        if best is not None:
            machine.broadcast(
                best_pid,
                len(best[0].rows) + len(best[0].cols),
                name="winner-bcast",
            )
        machine.barrier("step-sync")
        fa = machine.faults
        if fa is not None:
            # Crashes surface at the barriers above; the replicated
            # algorithm's recovery is pure redistribution — every
            # survivor holds the whole circuit, so the next iteration's
            # share/stripe dealing over the survivor set is complete.
            for pid in machine.take_detected():
                fa.note_recovery(
                    "redistribute", machine, pid=pid, for_kinds=("crash",),
                    detail="shares and stripes re-dealt to survivors",
                )
        if best is None or best[1] < min_gain:
            break

        rect, gain = best
        new_name = f"[r{extractions}]"
        probe = CostMeter()
        applied = apply_rectangle(work_net, matrix, rect, new_name=new_name, gain=gain)
        probe.charge("divide_node", len(applied.modified_nodes))
        # Every processor divides its own replica: redundant work for all.
        machine.charge_all(probe, name="extract-commit")
        extractions += 1
        node_owner[applied.new_node] = extractions % nprocs
        pending = [applied.new_node, *applied.modified_nodes]

    return ParallelRunResult(
        algorithm="replicated",
        nprocs=nprocs,
        network=work_net,
        initial_lc=initial_lc,
        final_lc=work_net.literal_count(),
        parallel_time=machine.elapsed(),
        sequential_time=0.0,  # caller fills with the 1-proc run of this algorithm
        extractions=extractions,
        details={"budget_used": float(budget.used) if budget else 0.0},
        proc_clocks=[p.clock for p in machine.procs],
    )
