"""Section 5 — parallel kernel extraction with L-shaped partitioning.

The circuit is min-cut partitioned as in Section 4, but the KC matrix is
re-partitioned so rectangles spanning blocks stay discoverable:

1. every processor builds the horizontal slab of its own block's rows,
   labeling rows/columns in its private offset space (Section 5.2);
2. kernel-cube *ownership* is distributed greedily — processor 0 owns all
   its cubes, processor *i* owns its cubes not owned by 0…i−1 — removing
   duplicate columns across processors (the cause of duplicated kernels);
3. each processor carves the sub-blocks ``B_ij`` (its rows restricted to
   columns owned by *j*) and ships them; processor *j*'s matrix becomes
   an **L**: its own horizontal slab plus a vertical leg of everyone
   else's rows over the columns it owns (Figure 3/4);
4. extraction then proceeds with *no global synchronization*: each
   processor repeatedly finds its best rectangle against the shared
   speculative cube states (:mod:`repro.parallel.cubestate`), divides its
   own nodes, and forwards partial rectangles touching foreign rows to
   their owners, who apply the zero-kernel-cost profitability re-check of
   Section 5.3 before dividing.

Because the matrices go stale as nodes are rewritten, the loop runs in
*cycles*: extraction-until-quiescence on fixed matrices (cheap, barrier-
free), then one barrier and a rebuild over the modified nodes.  Barriers
per cycle — not per extraction step — is what separates this algorithm's
scalability from the replicated one's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.algebra.cube import Cube, cube_union
from repro.algebra.kernels import Kernel, kernels
from repro.algebra.sop import Sop, divide
from repro.faults import (
    ExtractionJournal,
    note_control_resync,
    resolve_fault_injector,
)
from repro.machine.costmodel import CostMeter, CostModel, DEFAULT_COST_MODEL
from repro.machine.simulator import SimulatedMachine
from repro.network.boolean_network import BooleanNetwork
from repro.obs.tracer import Tracer
from repro.parallel.common import ParallelRunResult, partition_network_nodes
from repro.parallel.cubestate import CubeRef, CubeStateStore, CubeStateValues
from repro.rectangles.kcmatrix import KCMatrix, LabelAllocator
from repro.rectangles.pingpong import best_rectangle_pingpong
from repro.rectangles.rectangle import Rectangle


@dataclass
class PartialRectangle:
    """A best rectangle's share touching another processor's nodes."""

    src_pid: int
    dst_pid: int
    new_node: str
    kernel: Sop
    # (node, cokernel, covered cube refs) per foreign row.
    rows: List[Tuple[str, Cube, Tuple[CubeRef, ...]]]

    def words(self) -> int:
        return sum(len(refs) for _, _, refs in self.rows) + len(self.kernel)


@dataclass
class _LShapeSetup:
    matrices: List[KCMatrix]
    owned_cols: List[Set[int]]
    alpha: float  # sparsity of the conceptual full matrix
    gamma: float  # mean sparsity of the L-shaped matrices
    lost_bij: bool = False  # a vertical-leg piece was permanently dropped


def build_lshaped_matrices(
    machine: SimulatedMachine,
    network: BooleanNetwork,
    blocks: Sequence[Sequence[str]],
    kernel_cache: Dict[str, List[Kernel]],
) -> _LShapeSetup:
    """Phases 1–3: slabs, greedy cube ownership, B_ij exchange.

    Each processor's L matrix is the only :class:`KCMatrix` built, once:
    slabs and ``B_ij`` pieces are plain lists written straight into it.
    """
    nprocs = machine.nprocs

    # Phase 1: each processor enumerates kernels and builds its slab:
    # its (row label, node, kernel)s and each cube's local column label.
    def build_slab(proc):
        rows: List[Tuple[int, str, Kernel]] = []
        cols: Dict[Cube, int] = {}
        row_alloc = LabelAllocator(proc.pid)
        col_alloc = LabelAllocator(proc.pid)
        for n in blocks[proc.pid]:
            ks = kernel_cache.get(n)
            if ks is None:
                ks = kernels(network.nodes[n], meter=proc.meter)
                kernel_cache[n] = ks
            for kern in ks:
                rows.append((row_alloc(), n, kern))
                for kc in kern.expression:
                    if kc not in cols:
                        cols[kc] = col_alloc()
                proc.meter.charge("kc_entry", len(kern.expression))
        return rows, cols

    slabs: List[Tuple[list, Dict[Cube, int]]] = machine.run_phase(
        build_slab, name="build-slab"
    )
    if machine.faults is not None:
        # Crashed processors contribute empty slabs this cycle; their
        # nodes are reassigned by the post-barrier recovery pass.
        slabs = [s if s is not None else ([], {}) for s in slabs]

    # Phase 2: processors send their kernel-cube lists to the master
    # (the lowest surviving pid — 0 unless it crashed), which distributes
    # ownership greedily (paper's pseudo-code lines 1–7) and returns the
    # local→global column mapping.
    master = machine.lowest_alive()
    for pid in range(nprocs):
        if pid != master:
            delivered = machine.send(
                pid, master, len(slabs[pid][1]), name="cube-gather"
            )
            if not delivered:
                note_control_resync(machine, master, "cube-gather")
    global_label_of_cube: Dict[Cube, int] = {}
    owner_of_cube: Dict[Cube, int] = {}
    for pid in range(nprocs):
        for cube, label in slabs[pid][1].items():
            if cube not in global_label_of_cube:
                global_label_of_cube[cube] = label
                owner_of_cube[cube] = pid
    machine.charge(master, "cube_state_op", sum(len(s[1]) for s in slabs))
    for pid in range(nprocs):
        if pid != master:
            delivered = machine.send(
                master, pid, len(slabs[pid][1]), name="cube-map"
            )
            if not delivered:
                note_control_resync(machine, pid, "cube-map")

    # Phase 3: build each slab's matrix under the global column labels,
    # carve the B_ij sub-blocks, ship them, and splice the vertical legs.
    def relabel(proc) -> KCMatrix:
        rows, cols = slabs[proc.pid]
        mat = KCMatrix()
        for r, n, kern in rows:
            mat.add_row(r, n, kern.cokernel)
        for cube in cols:
            g = global_label_of_cube[cube]
            mat.ensure_col(cube, lambda: g)
        col_of_cube = mat.col_of_cube
        for r, _, kern in rows:
            mat.add_entries(r, [col_of_cube[kc] for kc in kern.expression])
        return mat

    matrices: List[KCMatrix] = machine.run_phase(relabel, name="relabel")
    if machine.faults is not None:
        matrices = [m if m is not None else KCMatrix() for m in matrices]
    owned_cols: List[Set[int]] = [set() for _ in range(nprocs)]
    for cube, pid in owner_of_cube.items():
        owned_cols[pid].add(global_label_of_cube[cube])
    owned_sorted = [sorted(owned) for owned in owned_cols]

    lost_bij = False
    for i in range(nprocs):
        src = matrices[i]
        for j in range(nprocs):
            if i == j:
                continue
            # B_ij: i's own rows over j's columns (the legs spliced into
            # i's matrix hold only i's columns).
            words = sum(len(src.rows_of_col(c)) for c in owned_sorted[j] if c in src.cols)
            if not words:
                continue
            delivered = machine.send(i, j, words, name="Bij")
            if delivered:
                matrices[j].take_columns(src, owned_sorted[j])
            else:
                # The vertical-leg piece is missing this cycle; the next
                # rebuild regenerates it from the network.  (The drop
                # only costs quality for one cycle, never correctness —
                # the caller forces an extra cycle if this was the last.)
                fa = machine.faults
                if fa is not None and fa.has_open(("drop", "corrupt")):
                    lost_bij = True
                    fa.note_recovery(
                        "rebuild", machine, pid=j,
                        for_kinds=("drop", "corrupt"),
                        detail=f"B_{i}{j} lost; regenerated next cycle",
                    )

    rows_total = sum(len(s[0]) for s in slabs)
    cols_total = len(global_label_of_cube)
    entries_total = sum(len(kern.expression) for s in slabs for _, _, kern in s[0])
    alpha = entries_total / (rows_total * cols_total) if rows_total and cols_total else 0.0
    gammas = [m.sparsity() for m in matrices if m.num_rows and m.num_cols]
    gamma = sum(gammas) / len(gammas) if gammas else 0.0
    return _LShapeSetup(matrices=matrices, owned_cols=owned_cols,
                        alpha=alpha, gamma=gamma, lost_bij=lost_bij)


def _apply_kernel_to_node(
    network: BooleanNetwork,
    node: str,
    kernel_sop: Sop,
    x_lit: int,
    rows: List[Tuple[str, Cube, Tuple[CubeRef, ...]]],
    store: CubeStateStore,
    pid: int,
    meter: CostMeter,
) -> bool:
    """Divide one node by an extracted kernel (Section 5.3 semantics).

    Zero-kernel-cost re-check: if the covered cubes' *current* values
    exceed the replacement cost, the covered cubes are added back
    (function-preserving — every cube ever removed from the node remains
    implied by it) and the node is weak-divided; otherwise the existing
    representation is divided as-is.  Returns True when the node changed.
    """
    refs_all: List[CubeRef] = [ref for _, _, refs in rows for ref in refs]
    value = sum(store.value(ref, pid, meter=meter) for ref in refs_all)
    cost = sum(len(ck) + 1 for _, ck, _ in rows)
    profitable = value > cost

    before = set(network.nodes[node])
    expr = set(before)
    if profitable:
        for _, _, refs in rows:
            for _, cube in refs:
                expr.add(cube)
    quotient, remainder = divide(tuple(sorted(expr)), kernel_sop)
    if not quotient:
        return False
    new_expr = {cube_union(qc, (x_lit,)) for qc in quotient} | set(remainder)
    if new_expr == before:
        return False
    network.set_expression(node, sorted(new_expr))
    meter.charge("divide_node", 1)
    removed = (before | expr) - new_expr
    store.divide(((node, c) for c in removed), meter=meter)
    return True


def lshaped_kernel_extract(
    network: BooleanNetwork,
    nprocs: int,
    model: CostModel = DEFAULT_COST_MODEL,
    seed: int = 0,
    partitioner: str = "mincut",
    max_cycles: int = 200,
    max_rounds: int = 16,
    max_seeds: Optional[int] = 64,
    min_gain: int = 1,
    disable_vertical_leg: bool = False,
    disable_recheck: bool = False,
    tracer: Optional["Tracer"] = None,
    faults=None,
) -> ParallelRunResult:
    """Run the L-shaped algorithm on a copy of *network*.

    ``disable_vertical_leg`` and ``disable_recheck`` exist for the
    ablation benchmarks: the former reduces the matrices to pure
    horizontal slabs with deduplicated columns (isolating the quality
    contribution of the overlap), the latter skips the Section 5.3
    profitability re-check (re-creating the Example 5.2 pathology).

    ``max_rounds`` bounds extraction rounds per cycle and is the
    staleness/synchronization trade-off: each cycle's matrices go stale
    as nodes are rewritten, so fewer rounds per cycle (more frequent
    rebuilds, one barrier each) buys quality at sync cost.  The default
    of 16 keeps quality within ~0.5% of sequential on the benchmark
    suite while preserving the speedup.

    ``faults`` accepts a :class:`~repro.faults.plan.FaultPlan` or
    :class:`~repro.faults.injector.FaultInjector` (default: the
    ``REPRO_FAULTS`` environment).  Crashed owners are detected at the
    cycle barrier; their blocks and speculative cube claims go to
    survivors, and partial rectangles lost in flight are replayed from
    the extraction journal — see ``docs/robustness.md``.
    """
    work_net = network.copy()
    machine = SimulatedMachine(
        nprocs, model, tracer=tracer, faults=resolve_fault_injector(faults)
    )
    initial_lc = work_net.literal_count()

    blocks: List[List[str]] = machine.run_phase(
        lambda proc: partition_network_nodes(
            work_net, nprocs, seed=seed, partitioner=partitioner, meter=proc.meter
        ),
        name="partition",
        procs=[0],
    )[0]
    for pid in range(1, nprocs):
        words = sum(work_net.literal_count(n) for n in blocks[pid])
        if not machine.send(0, pid, words, name="distribute"):
            note_control_resync(machine, pid, "distribute")

    node_owner: Dict[str, int] = {}
    for pid, block in enumerate(blocks):
        for n in block:
            node_owner[n] = pid

    kernel_cache: Dict[str, List[Kernel]] = {}
    extractions = 0
    counter = 0
    alpha = gamma = 0.0

    for cycle in range(max_cycles):
        setup = build_lshaped_matrices(machine, work_net, blocks, kernel_cache)
        if cycle == 0:
            alpha, gamma = setup.alpha, setup.gamma
        matrices = setup.matrices
        if disable_vertical_leg:
            # Ablation: reduce each matrix to its own block's rows over its
            # owned columns — no vertical leg (foreign rows) and no
            # horizontal overlap (non-owned columns).  This is the
            # independent algorithm plus column deduplication.
            reduced = []
            for p, m in enumerate(matrices):
                sub = m.submatrix_columns(setup.owned_cols[p])
                own = set(blocks[p])
                for r in [r for r, info in sub.rows.items()
                          if info.node not in own]:
                    sub.remove_row(r)
                reduced.append(sub)
            matrices = reduced
        store = CubeStateStore()
        # Each processor's view of the store, held as its matrix's value
        # table and patched by the store's transitions.
        views = [CubeStateValues(store, pid) for pid in range(nprocs)]
        mailbox: List[List[PartialRectangle]] = [[] for _ in range(nprocs)]
        journal = ExtractionJournal() if machine.faults is not None else None
        cycle_changed: Set[str] = set()
        cycle_extractions = 0

        for _ in range(max_rounds):
            # --- sub-phase A: every processor searches and covers -----
            bests: Dict[int, Tuple[Rectangle, int]] = {}

            def search(proc):
                mat = matrices[proc.pid]
                if not mat.rows:
                    return None
                vf = views[proc.pid]
                vf.prepare(mat, meter=proc.meter)
                found = best_rectangle_pingpong(
                    mat, value_fn=vf, max_seeds=max_seeds, meter=proc.meter
                )
                if found is None or found[1] < min_gain:
                    return None
                rect = found[0]
                refs = [
                    mat.cube_ref(r, c) for r in rect.rows for c in rect.cols
                ]
                store.cover(refs, proc.pid, meter=proc.meter)
                return found

            results = machine.run_phase(search, name="search")
            for pid, res in enumerate(results):
                if res is not None:
                    bests[pid] = res

            # --- sub-phase B: owners extract, foreign rows forwarded ---
            def extract(proc):
                nonlocal counter, cycle_extractions
                got = bests.get(proc.pid)
                if got is None:
                    return
                rect, _gain = got
                mat = matrices[proc.pid]
                kernel_sop = tuple(sorted(mat.cols[c] for c in rect.cols))
                new_name = f"[L{proc.pid}_{counter}]"
                counter += 1
                work_net.add_node(new_name, kernel_sop)
                x_lit = work_net.table.id_of(new_name)
                node_owner[new_name] = proc.pid
                blocks[proc.pid].append(new_name)
                cycle_changed.add(new_name)

                rows_by_node: Dict[str, List[Tuple[str, Cube, Tuple[CubeRef, ...]]]] = {}
                for r in rect.rows:
                    info = mat.rows[r]
                    refs = tuple(mat.cube_ref(r, c) for c in rect.cols)
                    rows_by_node.setdefault(info.node, []).append(
                        (info.node, info.cokernel, refs)
                    )
                used = False
                foreign: Dict[int, List] = {}
                for node, rows in sorted(rows_by_node.items()):
                    owner = node_owner[node]
                    if owner == proc.pid:
                        changed = _apply_kernel_to_node(
                            work_net, node, kernel_sop, x_lit, rows,
                            store, proc.pid, proc.meter,
                        )
                        if changed:
                            used = True
                            cycle_changed.add(node)
                    else:
                        foreign.setdefault(owner, []).extend(rows)
                for dst, rows in sorted(foreign.items()):
                    msg = PartialRectangle(
                        src_pid=proc.pid, dst_pid=dst,
                        new_node=new_name, kernel=kernel_sop, rows=rows,
                    )
                    delivered = machine.send(
                        proc.pid, dst, msg.words(), name="partial-rect"
                    )
                    if delivered:
                        mailbox[dst].append(msg)
                    elif journal is not None:
                        journal.log_lost(msg)
                for r in rect.rows:
                    if r in mat.rows:
                        mat.remove_row(r)
                cycle_extractions += 1
                if used:
                    pass  # X is live; foreign users may add more fanout.

            machine.run_phase(extract, name="extract")

            # --- sub-phase C: apply forwarded partial rectangles -------
            def drain(proc):
                msgs, mailbox[proc.pid] = mailbox[proc.pid], []
                for msg in msgs:
                    x_lit = work_net.table.id_of(msg.new_node)
                    by_node: Dict[str, List] = {}
                    for row in msg.rows:
                        by_node.setdefault(row[0], []).append(row)
                    for node, rows in sorted(by_node.items()):
                        if node not in work_net.nodes:
                            continue
                        if disable_recheck:
                            # Ablation: force the profitable path (add back
                            # covered cubes unconditionally) — Example 5.2.
                            for _, _, refs in rows:
                                expr = set(work_net.nodes[node])
                                expr.update(cube for _, cube in refs)
                                work_net.set_expression(node, sorted(expr))
                        changed = _apply_kernel_to_node(
                            work_net, node, msg.kernel, x_lit, rows,
                            store, proc.pid, proc.meter,
                        )
                        if changed:
                            cycle_changed.add(node)

            machine.run_phase(drain, name="drain")

            if not bests and not any(mailbox):
                break

        machine.barrier("cycle-sync")
        recovered = False
        if machine.faults is not None:
            recovered = _recover_lshaped(machine, work_net, blocks, node_owner,
                                         store, mailbox, journal, cycle_changed)
        store.detach()
        extractions += cycle_extractions
        # Drop extraction nodes nothing ended up using, and collapse
        # duplicate-kernel aliases ([Li] = [Lj]) the interleaving can
        # produce.
        removed = _sweep_dead_extractions(work_net)
        cycle_changed -= removed
        if work_net.collapse_aliases():
            kernel_cache.clear()
        for pid in range(nprocs):
            blocks[pid] = [n for n in blocks[pid] if n in work_net.nodes]
        for n in cycle_changed:
            kernel_cache.pop(n, None)
        if cycle_extractions == 0:
            # A quiescent cycle normally terminates, but a cycle that
            # lost a vertical-leg piece or just reassigned a dead
            # owner's block hasn't searched that state yet — run one
            # more rebuild so recovery costs time, not quality.
            if recovered or setup.lost_bij:
                continue
            break

    return ParallelRunResult(
        algorithm="lshaped",
        nprocs=nprocs,
        network=work_net,
        initial_lc=initial_lc,
        final_lc=work_net.literal_count(),
        parallel_time=machine.elapsed(),
        sequential_time=0.0,  # caller fills with the SIS baseline
        extractions=extractions,
        details={"alpha": alpha, "gamma": gamma},
        proc_clocks=[p.clock for p in machine.procs],
    )


def _recover_lshaped(
    machine: SimulatedMachine,
    work_net: BooleanNetwork,
    blocks: List[List[str]],
    node_owner: Dict[str, int],
    store: CubeStateStore,
    mailbox: List[List[PartialRectangle]],
    journal: ExtractionJournal,
    cycle_changed: Set[str],
) -> bool:
    """Post-barrier recovery: reassign crashed owners, replay lost mail.

    Runs right after ``cycle-sync``, where crashes are detected.  For
    every newly dead processor: its speculative COVERED claims are
    released (survivors can re-claim the cubes), messages stranded in
    its mailbox join the journal, and its block — rows *and* the owned
    kernel-cube columns that follow from node ownership under the
    offset-based global labeling — is dealt round-robin to survivors,
    who rebuild slabs for the inherited nodes next cycle.  Finally every
    journaled (undelivered) partial rectangle is replayed to the current
    owner of each affected node in a ``recovery-drain`` phase.  Returns
    True when anything was recovered, so the caller can force another
    extraction cycle over the repaired state.
    """
    fa = machine.faults
    newly = machine.take_detected()
    alive = machine.alive_pids()
    for pid in newly:
        released = store.release_owner(pid)
        for msg in mailbox[pid]:
            journal.log_lost(msg, reason="dead-owner")
        mailbox[pid] = []
        moved = sorted(n for n in blocks[pid] if n in work_net.nodes)
        blocks[pid] = []
        for i, n in enumerate(moved):
            tgt = alive[i % len(alive)]
            blocks[tgt].append(n)
            node_owner[n] = tgt
        fa.note_recovery(
            "reassign", machine, pid=pid, for_kinds=("crash",),
            detail=f"{len(moved)} nodes -> {len(alive)} survivors, "
                   f"{released} claims released",
        )
    pending = journal.take_undelivered()
    if not pending:
        return bool(newly)

    def replay(proc):
        for entry in pending:
            msg = entry.message
            if msg.new_node not in work_net.nodes:
                continue
            x_lit = work_net.table.id_of(msg.new_node)
            by_node: Dict[str, List] = {}
            for row in msg.rows:
                by_node.setdefault(row[0], []).append(row)
            for node, rows in sorted(by_node.items()):
                if node not in work_net.nodes:
                    continue
                if node_owner.get(node) != proc.pid:
                    continue
                changed = _apply_kernel_to_node(
                    work_net, node, msg.kernel, x_lit, rows,
                    store, proc.pid, proc.meter,
                )
                if changed:
                    cycle_changed.add(node)

    machine.run_phase(replay, name="recovery-drain", procs=alive)
    for entry in pending:
        fa.note_recovery(
            "replay", machine, pid=_replay_pid(entry, alive),
            for_kinds=("drop", "corrupt", "crash"),
            detail=f"{entry.reason}: {entry.message.new_node} "
                   f"({len(entry.message.rows)} rows)",
        )
    return True


def _replay_pid(entry, alive: List[int]) -> int:
    """The pid a replayed message is attributed to (its original target
    when still alive, else the lowest survivor)."""
    dst = entry.message.dst_pid
    return dst if dst in alive else alive[0]


def _sweep_dead_extractions(network: BooleanNetwork) -> Set[str]:
    """Remove extraction nodes ([L…]/[T…]) with no remaining fanout."""
    removed: Set[str] = set()
    while True:
        fanout = network.fanout_map()
        dead = [
            n for n in network.nodes
            if n.startswith(("[L", "[T"))
            and not fanout.get(n)
            and n not in network.outputs
        ]
        if not dead:
            return removed
        for n in dead:
            del network.nodes[n]
            removed.add(n)


def lshaped_quality_single_processor(
    network: BooleanNetwork, ways: int, seed: int = 0
) -> int:
    """Table 4: final LC of the k-way L-shaped run executed serially."""
    res = lshaped_kernel_extract(network, nprocs=ways, seed=seed)
    return res.final_lc
