"""Every machine-level fault kind the grammar accepts is really injected.

A kind that parses and renders but that no machine primitive ever fires
is a dead switch: a plan naming it runs fault-free while looking like a
chaos run.  Each kind in :data:`~repro.faults.plan.FAULT_KINDS` needs an
entry in ``FIRING_SPECS`` that records a ``fault`` on every parallel
algorithm, so a parse-only kind cannot be added back unnoticed.
"""

import pytest

from repro.circuits import load_circuit
from repro.faults import FAULT_KINDS, FaultInjector, FaultPlan
from repro.parallel.independent import independent_kernel_extract
from repro.parallel.lshaped import lshaped_kernel_extract
from repro.parallel.replicated import replicated_kernel_extract

FIRING_SPECS = {
    "crash": "crash:1@1",
    "slow": "slow:1@0-5",
    "drop": "drop:0",
    "corrupt": "corrupt:0",
    "dup": "dup:0",
}

ALGORITHMS = {
    "replicated": replicated_kernel_extract,
    "independent": independent_kernel_extract,
    "lshaped": lshaped_kernel_extract,
}


@pytest.fixture(scope="module")
def dalu():
    return load_circuit("dalu", scale=0.1)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_every_fault_kind_fires(dalu, kind, algorithm):
    assert kind in FIRING_SPECS, f"fault kind {kind!r} has no firing spec"
    inj = FaultInjector(FaultPlan.parse(FIRING_SPECS[kind]))
    ALGORITHMS[algorithm](dalu, nprocs=4, faults=inj)
    fired = [r for r in inj.records if r.phase == "fault"]
    assert fired, f"{FIRING_SPECS[kind]} recorded no fault on {algorithm}"
    assert {r.kind for r in fired} == {kind}
