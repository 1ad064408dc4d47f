"""The determinism contract and the fault-free byte-identity guarantee.

Two runs under the same ``(plan, seed)`` must produce byte-identical
event logs, result networks, and virtual clocks.  And attaching ``FaultPlan.none()`` (or no plan at all) must be
*exactly* the fault-free path: same network bytes, same clocks.
"""

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.network.eqn import write_eqn
from repro.parallel.independent import independent_kernel_extract
from repro.parallel.lshaped import lshaped_kernel_extract
from repro.parallel.replicated import replicated_kernel_extract
from repro.verify.generator import random_network

RUNNERS = {
    "lshaped": lambda net, faults: lshaped_kernel_extract(net, 3, faults=faults),
    "replicated": lambda net, faults: replicated_kernel_extract(net, 3, faults=faults),
    "independent": lambda net, faults: independent_kernel_extract(net, 3, faults=faults),
}

PLAN = "crash:1@4,drop:6*3,slow:2x3@2-9"


def _fingerprint(result):
    return (
        write_eqn(result.network),
        result.final_lc,
        result.parallel_time,
        tuple(result.proc_clocks),
    )


@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_same_plan_seed_is_byte_identical(algorithm):
    net = random_network(11, family="shared")
    plan = FaultPlan.parse(PLAN)
    runs = []
    for _ in range(2):
        inj = FaultInjector(plan, seed=3)
        runs.append((_fingerprint(RUNNERS[algorithm](net, inj)),
                     inj.serialized_log()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_empty_plan_is_the_fault_free_path(algorithm):
    net = random_network(13, family="sparse")
    plain = _fingerprint(RUNNERS[algorithm](net, None))
    empty = _fingerprint(RUNNERS[algorithm](net, FaultPlan.none()))
    assert plain == empty


def test_different_seed_may_differ_but_stays_valid():
    # The schedule is plan-driven; the seed only feeds corruption noise,
    # so the log stays well-formed for any seed.
    net = random_network(14, family="dupcube")
    for seed in (0, 1):
        inj = FaultInjector(FaultPlan.parse("crash:0@2,drop:3"), seed=seed)
        lshaped_kernel_extract(net, 3, faults=inj)
        assert [r for r in inj.unrecovered() if r.kind != "slow"] == []
