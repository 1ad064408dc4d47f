"""Pinned L-shaped answers: eqns, final LC, extractions and clocks.

Each case digests the factored network's eqn text together with
``repr((final_lc, extractions, parallel_time, proc_clocks))``, so any
change to a search answer, a meter count or the order the virtual
clock sums its charges in shows up here.  The digests were taken before
L-shaped searches moved onto live cube-state value tables with ascent
replay; that change must leave every one of them as it was.

The cases cover MCNC recipes at 2, 4 and 6 processors, both ablations,
and one fault plan whose run releases a crashed owner's claims
(``release_owner``) and replays a permanently lost partial rectangle
from the journal.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.circuits.mcnc import make_circuit
from repro.faults import FaultInjector, FaultPlan
from repro.network.eqn import write_eqn
from repro.parallel.lshaped import lshaped_kernel_extract

#: (recipe, scale, processors, options, final LC, extractions, digest).
PINS = [
    ("dalu", 0.1, 2, {}, 257, 20, "8205735926970a78"),
    ("dalu", 0.1, 4, {}, 257, 22, "fb44005432e8cbc4"),
    ("dalu", 0.1, 6, {}, 257, 22, "5eb5322ed5aea56d"),
    ("misex3", 0.1, 4, {}, 157, 16, "c5542ad5e86249bb"),
    ("des", 0.05, 6, {}, 290, 24, "d3e1bdc359ee5b16"),
    ("spla", 0.05, 2, {}, 662, 59, "2136aebe55dd9716"),
    ("dalu", 0.1, 4, {"disable_vertical_leg": True}, 277, 17, "b69fe3f775bbf2a6"),
    ("ex1010", 0.05, 2, {"disable_recheck": True}, 394, 47, "8104ab78ebffa31a"),
]

#: A crash plus a permanent message loss on dalu@0.1 at 4 processors.
FAULT_PLAN = "crash:1@8,drop:14*3"
FAULT_PIN = (257, 21, "1d036f6aa1d82371")


def _digest(res) -> str:
    h = hashlib.sha256(write_eqn(res.network).encode())
    h.update(repr((res.final_lc, res.extractions, res.parallel_time,
                   res.proc_clocks)).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "name,scale,nprocs,options,final_lc,extractions,digest",
    PINS,
    ids=[f"{p[0]}@{p[1]}x{p[2]}" + "".join(f"-{k}" for k in p[3]) for p in PINS],
)
def test_pinned_answers(name, scale, nprocs, options, final_lc, extractions, digest):
    res = lshaped_kernel_extract(make_circuit(name, scale=scale), nprocs, **options)
    assert (res.final_lc, res.extractions, _digest(res)) == (
        final_lc, extractions, digest
    )


def test_pinned_fault_recovery():
    inj = FaultInjector(FaultPlan.parse(FAULT_PLAN))
    res = lshaped_kernel_extract(make_circuit("dalu", scale=0.1), 4, faults=inj)
    # The plan reaches both recovery paths the value tables must follow.
    kinds = {r.kind for r in inj.records if r.phase == "recovery"}
    assert {"reassign", "replay"} <= kinds
    assert (res.final_lc, res.extractions, _digest(res)) == FAULT_PIN
