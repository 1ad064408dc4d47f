"""Pinned simulated-machine behaviour: clocks, fault logs and spans.

Each case runs one parallel algorithm on the simulated machine under
one fault plan, untraced and traced, and digests what the machine
decides: the factored network's eqn text, the final literal count,
``parallel_time``, the per-processor clocks, the injector's
``serialized_log()`` and — for the traced run — every span's name,
category, track, virtual interval, ids, attributes and counters (host
times are excluded; they are not deterministic).

The plans cover no injector, an idle injector (its one event lies past
any message index a run reaches), crashes of a worker and of the master,
recovered and permanent drops, corruption, duplication and a slowdown
window, so every fault branch of every machine primitive is reached
along with the fault-free tails they share.

:func:`test_idle_injector_matches_fault_free` is the differential
oracle for the primitives themselves: the same scripted sequence of
machine operations with an idle injector attached and with
``faults=None`` must move every clock identically and record identical
``PhaseReport`` lists.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.circuits.mcnc import make_circuit
from repro.faults import FaultInjector, FaultPlan
from repro.machine.costmodel import CostMeter
from repro.machine.simulator import SimulatedMachine
from repro.network.eqn import write_eqn
from repro.obs.tracer import Tracer, use_tracer
from repro.parallel import (
    independent_kernel_extract,
    lshaped_kernel_extract,
    replicated_kernel_extract,
)

NPROCS = 4
CIRCUITS = ("dalu", "misex3")
SCALE = 0.1

ALGORITHMS = {
    "replicated": replicated_kernel_extract,
    "independent": independent_kernel_extract,
    "lshaped": lshaped_kernel_extract,
}

#: An event at a message index no run reaches: the injector is attached
#: (every primitive takes its fault branch) but nothing ever fires.
IDLE_PLAN = "drop:1000000000"

PLANS = (
    "none",
    IDLE_PLAN,
    "crash:1@5,drop:9*3",
    "crash:2@3,drop:7,corrupt:11",
    "dup:4,slow:0x3@2-9",
    "corrupt:2*3,dup:6",
    "crash:0@4,drop:1*2",
)

#: (circuit, algorithm, plan) -> (untraced digest, traced digest).
PINS = {
    ('dalu', 'replicated', 'none'): ('e1d4dde3190067dd', 'e295316b08f2541e'),
    ('dalu', 'replicated', 'drop:1000000000'): ('f8857916eae8e58f', '084e0d44482e9718'),
    ('dalu', 'replicated', 'crash:1@5,drop:9*3'): ('597b6e17592b38c4', '3c4b792eb0266a61'),
    ('dalu', 'replicated', 'crash:2@3,drop:7,corrupt:11'): ('b567e2dd616df457', 'd551ddae386681be'),
    ('dalu', 'replicated', 'dup:4,slow:0x3@2-9'): ('def0c907d347dd2a', 'e9b8058e63cdbe8a'),
    ('dalu', 'replicated', 'corrupt:2*3,dup:6'): ('f51df36a6afc15df', '5670abc6ddfb2e8f'),
    ('dalu', 'replicated', 'crash:0@4,drop:1*2'): ('67ea57a7ee54f386', '3fabcf7c146602ba'),
    ('dalu', 'independent', 'none'): ('70fd64081efcccad', '7458c30f6796b6fe'),
    ('dalu', 'independent', 'drop:1000000000'): ('2f6dcb40c0841327', 'e1e03dc1311373fd'),
    ('dalu', 'independent', 'crash:1@5,drop:9*3'): ('ebdbb1c94e23df68', '8255d248926ec7df'),
    ('dalu', 'independent', 'crash:2@3,drop:7,corrupt:11'): ('5550aaccc3beef80', '8d935ae3044dc2e3'),
    ('dalu', 'independent', 'dup:4,slow:0x3@2-9'): ('bd44c7ae40b69c0a', '7695f000b88ade4a'),
    ('dalu', 'independent', 'corrupt:2*3,dup:6'): ('b8456f763ac0110f', 'a0034fb53238d77d'),
    ('dalu', 'independent', 'crash:0@4,drop:1*2'): ('616389910c8be48d', '01ff051b2265cd18'),
    ('dalu', 'lshaped', 'none'): ('9cdc9d66e3058ca4', 'a0ae553a4672eded'),
    ('dalu', 'lshaped', 'drop:1000000000'): ('baa22c0fd546a61d', '9445643b6973526a'),
    ('dalu', 'lshaped', 'crash:1@5,drop:9*3'): ('3688c3fd10e43314', 'da3b79db71c4520f'),
    ('dalu', 'lshaped', 'crash:2@3,drop:7,corrupt:11'): ('95150b83d9aec39e', 'c0ede67d577a7fbe'),
    ('dalu', 'lshaped', 'dup:4,slow:0x3@2-9'): ('ae0a230c32b1430a', '0d7409a16211b6a9'),
    ('dalu', 'lshaped', 'corrupt:2*3,dup:6'): ('7e99ebae7023aeb4', '3fd73effe42147a7'),
    ('dalu', 'lshaped', 'crash:0@4,drop:1*2'): ('89be63b28cce29dd', '9985c7694e77a2b3'),
    ('misex3', 'replicated', 'none'): ('b2b1ea3d9addf6a8', 'bb19177ec7e4c087'),
    ('misex3', 'replicated', 'drop:1000000000'): ('ce209c842cc10283', '78d5510b026a5626'),
    ('misex3', 'replicated', 'crash:1@5,drop:9*3'): ('553622a9948d59bb', '05c2a820c37377b9'),
    ('misex3', 'replicated', 'crash:2@3,drop:7,corrupt:11'): ('9b22fd8b8946b3ca', 'ba6c24f64fed700a'),
    ('misex3', 'replicated', 'dup:4,slow:0x3@2-9'): ('f3a242c39e08b8c7', 'e91f7826cb8b2868'),
    ('misex3', 'replicated', 'corrupt:2*3,dup:6'): ('fda43af6749fb8a9', 'cf3398b265d14957'),
    ('misex3', 'replicated', 'crash:0@4,drop:1*2'): ('e72d3f74f7d556e2', 'ca18f6698af73ed3'),
    ('misex3', 'independent', 'none'): ('2e3df73f0420c8cd', '3222785272e8c977'),
    ('misex3', 'independent', 'drop:1000000000'): ('9d5f4a45d7a90e91', 'abf589cc93881b61'),
    ('misex3', 'independent', 'crash:1@5,drop:9*3'): ('8779c42a5fb4cc24', 'e88031ddb884a299'),
    ('misex3', 'independent', 'crash:2@3,drop:7,corrupt:11'): ('48251fa9b3808663', 'd535ac2ed53ab412'),
    ('misex3', 'independent', 'dup:4,slow:0x3@2-9'): ('4c69eed8655d658c', '933d4ce5cefa289e'),
    ('misex3', 'independent', 'corrupt:2*3,dup:6'): ('bf6ebdc522769190', '7af8c7588a69ef45'),
    ('misex3', 'independent', 'crash:0@4,drop:1*2'): ('c17a0407a3d18e3f', '510693f9cf3c55dc'),
    ('misex3', 'lshaped', 'none'): ('a793082a1410cd6f', 'b7b636256c77f921'),
    ('misex3', 'lshaped', 'drop:1000000000'): ('52928c026b5a33c0', '5a8ed3e4e3c2c2ad'),
    ('misex3', 'lshaped', 'crash:1@5,drop:9*3'): ('6afd61963acdf239', '4fcd8c0c1b7fc3a3'),
    ('misex3', 'lshaped', 'crash:2@3,drop:7,corrupt:11'): ('01cdcb78ed737f09', 'd2cb2cfdd64265be'),
    ('misex3', 'lshaped', 'dup:4,slow:0x3@2-9'): ('c538eff2ca71973c', 'e9ffa01d13e81c18'),
    ('misex3', 'lshaped', 'corrupt:2*3,dup:6'): ('2f4697e3d4e62e4b', '32dfc8b08b553e66'),
    ('misex3', 'lshaped', 'crash:0@4,drop:1*2'): ('9fe30dda3425b68f', '9ba3090d1ae4e0e9'),
}


def _digest(circuit: str, algorithm: str, plan: str, traced: bool) -> str:
    inj = None if plan == "none" else FaultInjector(FaultPlan.parse(plan))
    tracer = Tracer() if traced else None
    with use_tracer(tracer):
        res = ALGORITHMS[algorithm](
            make_circuit(circuit, scale=SCALE), NPROCS,
            tracer=tracer, faults=inj,
        )
    h = hashlib.sha256(write_eqn(res.network).encode())
    h.update(repr((res.final_lc, res.parallel_time, res.proc_clocks)).encode())
    if inj is not None:
        h.update(inj.serialized_log().encode())
    if tracer is not None:
        for sp in tracer.finished():
            h.update(repr((
                sp.name, sp.cat, sp.track, sp.v0, sp.v1, sp.span_id,
                sp.parent_id, list(sp.attrs.items()),
                list(sp.counters.items()),
            )).encode())
    return h.hexdigest()[:16]


CASES = [(c, a, p) for c in CIRCUITS for a in ALGORITHMS for p in PLANS]


@pytest.mark.parametrize("circuit,algorithm,plan", CASES,
                         ids=[f"{c}-{a}-{p}" for c, a, p in CASES])
def test_pinned_machine(circuit, algorithm, plan):
    got = (_digest(circuit, algorithm, plan, traced=False),
           _digest(circuit, algorithm, plan, traced=True))
    assert got == PINS[(circuit, algorithm, plan)]


def _script(machine: SimulatedMachine) -> None:
    """Every primitive, nested and top-level, on uneven clocks."""

    def work(proc):
        proc.meter.charge("search_node", 10 * (proc.pid + 1))
        if proc.pid == 1:
            machine.send(1, 2, 7.0, name="in-phase-send")
            machine.broadcast(1, 3.0, name="in-phase-bcast")
        return proc.pid

    machine.run_phase(work, name="work")
    machine.charge(3, "kc_entry", 5.0)
    probe = CostMeter()
    probe.charge("kernel_cube_visit", 12)
    machine.charge_all(probe)
    machine.barrier("sync-1")
    machine.broadcast(0, 11.0)
    machine.send(2, 0, 4.0)
    machine.send(3, 3, 4.0)
    machine.run_phase(work, name="subset", procs=[0, 2])
    machine.barrier("sync-2")


def test_idle_injector_matches_fault_free():
    plain = SimulatedMachine(NPROCS)
    idle = SimulatedMachine(NPROCS, faults=FaultInjector(FaultPlan.parse(IDLE_PLAN)))
    with use_tracer(None):
        _script(plain)
        _script(idle)
    assert [p.clock for p in idle.procs] == [p.clock for p in plain.procs]
    assert idle.phases == plain.phases
    assert idle.faults.records == []
