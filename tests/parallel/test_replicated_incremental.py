"""The patched replica of ``replicated_kernel_extract`` against rebuilding.

The replicated algorithm builds its owner-labelled KC matrix once and
then patches only the rows of the nodes each extraction rewrites (plus
the new node), while every simulated clock is still charged for the
paper's whole-matrix rebuild.  Its contract is that nothing observable
changes: the final network, the extraction count, the parallel time,
every processor's clock and meter counts, the search budget spent and
the fault log must equal those of the original loop, which rebuilt the
replica from scratch on every iteration.  That loop survives here as
the reference.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import pytest

from repro.algebra.kernels import kernels
from repro.algebra.sop import parse_sop
from repro.circuits.mcnc import make_circuit
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.machine.costmodel import CostMeter
from repro.machine.simulator import SimulatedMachine
from repro.network.boolean_network import BooleanNetwork
from repro.network.eqn import write_eqn
from repro.parallel import replicated as replicated_mod
from repro.parallel.replicated import (
    _generate_kernels_partitioned,
    replicated_kernel_extract,
)
from repro.rectangles.cover import apply_rectangle
from repro.rectangles.kcmatrix import (
    LABEL_OFFSET,
    IncrementalKCMatrix,
    build_kc_matrix,
)
from repro.rectangles.rectangle import Rectangle
from repro.rectangles.search import (
    SearchBudget,
    best_rectangle_exhaustive,
    column_stripes,
)
from repro.verify import audit
from repro.verify.generator import FAMILIES, random_network


def reference_replicated(network, nprocs, faults=None):
    """The rebuild-every-iteration replicated loop (the original code).

    Returns the result fields, the machine and the search budget.
    """
    work_net = network.copy()
    machine = SimulatedMachine(nprocs, faults=faults)
    budget = SearchBudget(5_000_000)
    cache: Dict[str, list] = {}
    active = sorted(work_net.nodes)
    node_owner = {n: i % nprocs for i, n in enumerate(active)}
    extractions = 0
    pending = list(active)
    while True:
        _generate_kernels_partitioned(machine, work_net, pending, cache)
        probe = CostMeter()
        matrix = build_kc_matrix(
            work_net, active, kernel_cache=cache, meter=probe, owner=node_owner
        )
        machine.charge_all(probe, name="kc-build")
        alive = machine.alive_pids()
        stripes = column_stripes(matrix, len(alive))
        stripe_of = {pid: stripes[i] for i, pid in enumerate(alive)}

        def search(proc):
            stripe = stripe_of.get(proc.pid)
            if not stripe:
                return None
            return best_rectangle_exhaustive(
                matrix, anchor_filter=stripe.__contains__, budget=budget,
                meter=proc.meter,
            )

        candidates = machine.run_phase(search, name="rect-search")
        best: Optional[Tuple[Rectangle, int]] = None
        best_pid = -1
        for pid, cand in enumerate(candidates):
            if cand is not None and (best is None or cand[1] > best[1]):
                best, best_pid = cand, pid
        if best is not None:
            machine.broadcast(
                best_pid, len(best[0].rows) + len(best[0].cols), name="winner-bcast"
            )
        machine.barrier("step-sync")
        fa = machine.faults
        if fa is not None:
            for pid in machine.take_detected():
                fa.note_recovery(
                    "redistribute", machine, pid=pid, for_kinds=("crash",),
                    detail="shares and stripes re-dealt to survivors",
                )
        if best is None or best[1] < 1:
            break
        rect, gain = best
        probe = CostMeter()
        applied = apply_rectangle(
            work_net, matrix, rect, new_name=f"[r{extractions}]", gain=gain
        )
        probe.charge("divide_node", len(applied.modified_nodes))
        machine.charge_all(probe, name="extract-commit")
        extractions += 1
        node_owner[applied.new_node] = extractions % nprocs
        active = sorted(set(active) | {applied.new_node})
        pending = [applied.new_node] + list(applied.modified_nodes)
        for n in applied.modified_nodes:
            cache.pop(n, None)
    return (work_net, extractions, machine.elapsed(),
            [p.clock for p in machine.procs]), machine, budget


class _RecordingMachine(SimulatedMachine):
    made: List[SimulatedMachine] = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _RecordingMachine.made.append(self)


def assert_same_as_reference(monkeypatch, network, nprocs, plan=None):
    """Run both loops on *network* and compare everything observable."""
    ref_faults = FaultInjector(plan) if plan is not None else None
    (ref_net, ref_ext, ref_time, ref_clocks), ref_machine, ref_budget = (
        reference_replicated(network, nprocs, faults=ref_faults)
    )
    _RecordingMachine.made = []
    monkeypatch.setattr(replicated_mod, "SimulatedMachine", _RecordingMachine)
    faults = FaultInjector(plan) if plan is not None else None
    res = replicated_kernel_extract(network, nprocs, faults=faults)
    (machine,) = _RecordingMachine.made

    assert write_eqn(res.network) == write_eqn(ref_net)
    assert res.extractions == ref_ext
    assert res.parallel_time == ref_time
    assert res.proc_clocks == ref_clocks
    assert [p.meter.counts for p in machine.procs] == [
        p.meter.counts for p in ref_machine.procs
    ]
    assert res.details["budget_used"] == float(ref_budget.used)
    if plan is not None:
        assert faults.serialized_log() == ref_faults.serialized_log()
    return res, faults


@pytest.mark.parametrize("nprocs", [1, 2, 3, 4])
@pytest.mark.parametrize("family", FAMILIES)
def test_fuzz_families_match_rebuild(monkeypatch, family, nprocs):
    extracted = 0
    for seed in range(6):
        res, _ = assert_same_as_reference(
            monkeypatch, random_network(seed, family), nprocs
        )
        extracted += res.extractions
    if family != "degenerate":
        assert extracted > 0


@pytest.mark.parametrize("name,scale", [("dalu", 0.15), ("des", 0.1)])
def test_mcnc_recipes_match_rebuild(monkeypatch, name, scale):
    res, _ = assert_same_as_reference(monkeypatch, make_circuit(name, scale=scale), 4)
    assert res.extractions >= 3


@pytest.mark.parametrize("spec,recovery", [
    # Op 11 is the second iteration's kernel-gen: the crashed share is
    # regenerated by the lowest survivor before the replica is patched.
    ("crash:1@11", "regen"),
    ("slow:2x4@3-20", "absorb"),
])
def test_fault_plans_match_rebuild(monkeypatch, spec, recovery):
    _, faults = assert_same_as_reference(
        monkeypatch, make_circuit("dalu", scale=0.15), 4, plan=FaultPlan.parse(spec)
    )
    assert recovery in [r.kind for r in faults.records]


def test_kernel_free_network_matches_rebuild(monkeypatch):
    # Single-cube nodes have no kernels: the replica stays empty and no
    # kc_entry charge may appear in any meter.
    net = _network({"a": "v1 v2", "b": "v3 v4 v5"})
    res, _ = assert_same_as_reference(monkeypatch, net, 2)
    assert res.extractions == 0


def test_audited_run_checks_every_patch():
    # Under REPRO_CHECK=1 the replicated loop compares each patched
    # replica with a fresh owner-labelled build itself.
    audit.set_audits(True)
    try:
        net = make_circuit("dalu", scale=0.1)
        res = replicated_kernel_extract(net, 3)
        assert res.extractions > 0
    finally:
        audit.set_audits(None)


# ----------------------------------------------------------------------
# IncrementalKCMatrix(owner=...) edge cases
# ----------------------------------------------------------------------


def _network(exprs: Dict[str, str]) -> BooleanNetwork:
    net = BooleanNetwork("owners")
    net.add_inputs([f"v{i}" for i in range(1, 8)])
    for name, expr in exprs.items():
        net.add_node(name, parse_sop(expr, net.table))
        net.add_output(name)
    return net


def _patched(net, owner, inc=None, changed=()):
    """Build or patch *inc* and check it against a fresh owner build."""
    if inc is None:
        inc = IncrementalKCMatrix(
            {n: kernels(net.nodes[n]) for n in net.nodes}, owner=owner
        )
    else:
        inc.replace_nodes({n: kernels(net.nodes[n]) for n in changed})
    fresh = build_kc_matrix(net, sorted(net.nodes), owner=owner)
    assert audit.kc_order_form(inc.matrix) == audit.kc_order_form(fresh)
    audit.audit_kcmatrix(inc.matrix)
    return inc, fresh


def _fresh_owner_of(fresh, expr, net) -> int:
    (cube,) = parse_sop(expr, net.table)
    return fresh.col_of_cube[cube] // LABEL_OFFSET


def test_first_occurrence_moves_to_another_owner():
    net = _network({"a": "v1 v3 + v1 v4 + v2 v3 + v2 v4",
                    "b": "v1 v5 + v2 v5 + v6"})
    owner = {"a": 1, "b": 0}
    inc, fresh = _patched(net, owner)
    assert _fresh_owner_of(fresh, "v1", net) == 1
    # "a" stops using v1, so its first occurrence moves to "b".
    net.set_expression("a", parse_sop("v3 v6 + v4 v6 + v7", net.table))
    inc, fresh = _patched(net, owner, inc, ["a"])
    assert _fresh_owner_of(fresh, "v1", net) == 0
    # ... and back again.
    net.set_expression("a", parse_sop("v1 v3 + v2 v3 + v7", net.table))
    inc, fresh = _patched(net, owner, inc, ["a"])
    assert _fresh_owner_of(fresh, "v1", net) == 1


@pytest.mark.parametrize("new_name,moves", [
    ("[r0]", False),  # sorts after "A": the first occurrence stays put
    ("0", True),      # sorts before "A": the column moves to owner 0
])
def test_new_node_owner_below_its_columns_owner(new_name, moves):
    net = _network({"A": "v1 v3 + v1 v4 + v2 v3 + v2 v4",
                    "b": "v3 v5 + v4 v5 + v6"})
    owner = {"A": 2, "b": 1}
    inc, fresh = _patched(net, owner)
    assert _fresh_owner_of(fresh, "v3", net) == 2
    net.add_node(new_name, parse_sop("v3 v6 + v4 v6 + v3 v7", net.table))
    owner[new_name] = 0
    inc, fresh = _patched(net, owner, inc, [new_name])
    assert _fresh_owner_of(fresh, "v3", net) == (0 if moves else 2)


def test_width_rebuild_keeps_owner_order():
    net = _network({"n0": "v1 v3 + v1 v4 + v2 v3 + v2 v4",
                    "n1": "v1 v5 + v2 v5 + v6",
                    "n2": "v3 v6 + v4 v6 + v1 v7"})
    owner = {"n0": 2, "n1": 0, "n2": 1}
    inc, _ = _patched(net, owner)
    long_name = "[" + "extracted_kernel_" * 3 + "0]"
    net.add_node(long_name, parse_sop("v1 v3 + v1 v5 + v2 v3", net.table))
    owner[long_name] = 0
    net.set_expression("n2", parse_sop("v3 v6 + v4 v6", net.table))
    _patched(net, owner, inc, [long_name, "n2"])


def test_without_owner_labels_are_the_sequential_scheme():
    net = _network({"a": "v1 v3 + v1 v4 + v2 v3 + v2 v4",
                    "b": "v1 v5 + v2 v5 + v6"})
    node_kernels = {n: kernels(net.nodes[n]) for n in net.nodes}
    plain = IncrementalKCMatrix(node_kernels)
    zero = IncrementalKCMatrix(node_kernels, owner={"a": 0, "b": 0})
    assert plain.matrix.rows == zero.matrix.rows
    assert plain.matrix.cols == zero.matrix.cols
