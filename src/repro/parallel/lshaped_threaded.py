"""The L-shaped algorithm on real OS threads.

The deterministic simulator (:mod:`repro.parallel.lshaped`) is what the
benchmark tables measure; this variant runs the same protocol on a
Python thread per processor with genuinely nondeterministic
interleaving.  Under the GIL it cannot be faster — its purpose is to
stress the cube-state protocol and division logic under real
concurrency: whatever order the threads interleave in, the result must
remain functionally equivalent to the input (the test suite runs it
repeatedly and checks exactly that).

Locking discipline: one re-entrant lock guards every structural mutation
(network rewrites, block lists, the shared cube-state store, mailboxes).
Rectangle *search* runs outside the lock on the thread's own L-matrix —
stale values are harmless because division re-validates against the
store, mirroring the paper's shared-memory design where searches race
ahead of updates.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from repro.algebra.cube import Cube
from repro.machine.simulator import SimulatedMachine
from repro.network.boolean_network import BooleanNetwork
from repro.obs.tracer import span as _obs_span
from repro.parallel.common import ParallelRunResult, partition_network_nodes
from repro.parallel.cubestate import CubeRef, CubeStateStore
from repro.parallel.lshaped import (
    PartialRectangle,
    _apply_kernel_to_node,
    _sweep_dead_extractions,
    build_lshaped_matrices,
)
from repro.rectangles.pingpong import best_rectangle_pingpong


def lshaped_kernel_extract_threaded(
    network: BooleanNetwork,
    nprocs: int,
    seed: int = 0,
    max_cycles: int = 50,
    max_rounds: int = 16,
    max_seeds: Optional[int] = 64,
    min_gain: int = 1,
) -> BooleanNetwork:
    """Run the L-shaped protocol on real threads; return the new network.

    No timing is reported (wall-clock under the GIL is meaningless);
    callers check functional equivalence and literal count.
    """
    work_net = network.copy()
    lock = threading.RLock()
    blocks: List[List[str]] = partition_network_nodes(work_net, nprocs, seed=seed)
    node_owner: Dict[str, int] = {}
    for pid, block in enumerate(blocks):
        for n in block:
            node_owner[n] = pid
    kernel_cache: Dict[str, List] = {}
    counter_lock = threading.Lock()
    counter = [0]

    class _NullMeter:
        def charge(self, kind, amount=1.0):
            pass

    meter = _NullMeter()

    for _cycle in range(max_cycles):
        # Setup is serial (it is in the simulated version too — one
        # barrier-separated phase); extraction rounds are the threaded part.
        machine = SimulatedMachine(nprocs)
        setup = build_lshaped_matrices(machine, work_net, blocks, kernel_cache)
        matrices = setup.matrices
        store = CubeStateStore()
        mailbox: List[List[PartialRectangle]] = [[] for _ in range(nprocs)]
        cycle_changed: List[str] = []
        extracted_flag = [False]

        def run_processor(pid: int) -> None:
            # Host-clock-only span: virtual time is meaningless on real
            # threads, but per-thread lanes and search counters are not.
            with _obs_span("worker-cycle", cat="thread", track=f"thread-{pid}"):
                _run_processor_rounds(pid)

        def _run_processor_rounds(pid: int) -> None:
            mat = matrices[pid]
            for _ in range(max_rounds):
                # ---- drain forwarded partial rectangles ----------------
                with lock:
                    msgs, mailbox[pid] = mailbox[pid], []
                for msg in msgs:
                    with lock:
                        x_lit = work_net.table.id_of(msg.new_node)
                        by_node: Dict[str, List] = {}
                        for row in msg.rows:
                            by_node.setdefault(row[0], []).append(row)
                        for node, rows in sorted(by_node.items()):
                            if node not in work_net.nodes:
                                continue
                            if _apply_kernel_to_node(
                                work_net, node, msg.kernel, x_lit, rows,
                                store, pid, meter,
                            ):
                                cycle_changed.append(node)

                # ---- search own matrix (no lock: reads only) -----------
                if not mat.rows:
                    continue
                found = best_rectangle_pingpong(
                    mat,
                    value_fn=lambda node, cube: store.value((node, cube), pid),
                    max_seeds=max_seeds,
                )
                if found is None or found[1] < min_gain:
                    continue
                rect, _ = found

                # ---- extract under the lock ----------------------------
                with lock:
                    if any(r not in mat.rows for r in rect.rows):
                        continue  # another round consumed a row
                    kernel_sop = tuple(sorted(mat.cols[c] for c in rect.cols))
                    refs = [mat.cube_ref(r, c) for r in rect.rows for c in rect.cols]
                    store.cover(refs, pid)
                    with counter_lock:
                        new_name = f"[T{pid}_{counter[0]}]"
                        counter[0] += 1
                    work_net.add_node(new_name, kernel_sop)
                    x_lit = work_net.table.id_of(new_name)
                    node_owner[new_name] = pid
                    blocks[pid].append(new_name)
                    cycle_changed.append(new_name)
                    rows_by_node: Dict[str, List] = {}
                    for r in rect.rows:
                        info = mat.rows[r]
                        row_refs = tuple(mat.cube_ref(r, c) for c in rect.cols)
                        rows_by_node.setdefault(info.node, []).append(
                            (info.node, info.cokernel, row_refs)
                        )
                    for node, rows in sorted(rows_by_node.items()):
                        owner = node_owner[node]
                        if owner == pid:
                            if _apply_kernel_to_node(
                                work_net, node, kernel_sop, x_lit, rows,
                                store, pid, meter,
                            ):
                                cycle_changed.append(node)
                        else:
                            mailbox[owner].append(
                                PartialRectangle(
                                    src_pid=pid, dst_pid=owner,
                                    new_node=new_name, kernel=kernel_sop,
                                    rows=rows,
                                )
                            )
                    for r in rect.rows:
                        if r in mat.rows:
                            mat.remove_row(r)
                    extracted_flag[0] = True

        threads = [
            threading.Thread(target=run_processor, args=(pid,), name=f"lshape-{pid}")
            for pid in range(nprocs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # Post-cycle cleanup, as in the simulated version.
        for msgs in mailbox:
            for msg in msgs:
                x_lit = work_net.table.id_of(msg.new_node)
                by_node: Dict[str, List] = {}
                for row in msg.rows:
                    by_node.setdefault(row[0], []).append(row)
                for node, rows in sorted(by_node.items()):
                    if node in work_net.nodes:
                        _apply_kernel_to_node(
                            work_net, node, msg.kernel, x_lit, rows,
                            store, msg.dst_pid, meter,
                        )
        _sweep_dead_extractions(work_net)
        work_net.collapse_aliases()
        kernel_cache.clear()
        for pid in range(nprocs):
            blocks[pid] = [n for n in blocks[pid] if n in work_net.nodes]
        if not extracted_flag[0]:
            break

    return work_net
