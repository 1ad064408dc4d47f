"""Pinned exhaustive-search answers: replicated and sequential runs.

Each replicated case digests the factored network's eqn text together
with ``repr((final_lc, extractions, parallel_time, proc_clocks,
budget_used))``; each sequential ``exhaustive`` case the eqn text with
its final LC, iterations, every meter count and the budget spend.  So
any change to a search answer, a tie-break, a meter count, the order the
virtual clock sums its charges in or the node a budget runs out at
shows up here.  The digests were taken before the exhaustive search
replayed anchor records across extractions; that change must leave
every one of them as it was, and every case here replays anchors.

The cases cover MCNC recipes at 2, 4 and 6 processors, one crash whose
stripes are re-dealt to the survivors, sequential runs to the end and
sequential runs cut by their node budget.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.circuits.mcnc import make_circuit
from repro.faults import FaultInjector, FaultPlan
from repro.machine.costmodel import CostMeter
from repro.network.eqn import write_eqn
from repro.parallel.replicated import replicated_kernel_extract
from repro.rectangles.cover import kernel_extract
from repro.rectangles.memo import GLOBAL_SEARCH_STATS
from repro.rectangles.search import BudgetExceeded, SearchBudget

#: (recipe, scale, processors, final LC, extractions, digest).
PINS = [
    ("dalu", 0.1, 2, 257, 18, "1db16043168ce816"),
    ("dalu", 0.1, 4, 257, 18, "6872e18abdfa3244"),
    ("dalu", 0.1, 6, 257, 18, "82f31f412b7f2f64"),
    ("misex3", 0.1, 4, 154, 13, "2ebb1e09146e429b"),
    ("des", 0.05, 6, 290, 22, "8f1967731e7b54d6"),
    ("spla", 0.05, 2, 654, 55, "70be302ceec4b89c"),
    ("seq", 0.05, 4, 532, 37, "57eb62b2cbfc20c4"),
    ("ex1010", 0.05, 4, 388, 38, "403a9b1247b2c953"),
    ("dalu", 0.25, 4, 544, 32, "72d2effaa6050e38"),
]

#: Processor 1 fail-stops at operation count 3, dalu@0.1 at 4 processors.
FAULT_PLAN = "crash:1@3"
FAULT_PIN = (257, 18, "362d8ba934bd6a4f")

#: Sequential exhaustive runs: (recipe, scale, final LC, iterations, digest).
SEQUENTIAL_PINS = [
    ("dalu", 0.1, 257, 18, "dc96da7ede683ae9"),
    ("misex3", 0.1, 154, 13, "ea0f00b268c8cafc"),
    ("des", 0.05, 290, 22, "7948f570e9d77aa9"),
    ("seq", 0.05, 532, 37, "236b51094917a3f5"),
]

#: Sequential exhaustive runs cut by their budget: (recipe, scale, cap,
#: budget used at the raise, digest of the eqn, meter and spend).
EXHAUSTION_PINS = [
    ("dalu", 0.1, 2000, 2001, "2a821733067173eb"),
    ("spla", 0.05, 30000, 30001, "57a17d7c1a83ea81"),
    ("des", 0.05, 2500, 2501, "077bcb1152a5f697"),
]


def _replayed() -> int:
    return GLOBAL_SEARCH_STATS.snapshot()["anchors_replayed"]


def _digest(res) -> str:
    h = hashlib.sha256(write_eqn(res.network).encode())
    h.update(repr((res.final_lc, res.extractions, res.parallel_time,
                   res.proc_clocks, res.details["budget_used"])).encode())
    return h.hexdigest()[:16]


def _sequential_digest(net, res, meter, budget) -> str:
    h = hashlib.sha256(write_eqn(net).encode())
    h.update(repr((res.final_lc, res.iterations, sorted(meter.counts.items()),
                   budget.used)).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "name,scale,nprocs,final_lc,extractions,digest",
    PINS,
    ids=[f"{p[0]}@{p[1]}x{p[2]}" for p in PINS],
)
def test_pinned_replicated(name, scale, nprocs, final_lc, extractions, digest):
    before = _replayed()
    res = replicated_kernel_extract(make_circuit(name, scale=scale), nprocs)
    assert (res.final_lc, res.extractions, _digest(res)) == (
        final_lc, extractions, digest
    )
    assert _replayed() > before


def test_pinned_replicated_crash():
    inj = FaultInjector(FaultPlan.parse(FAULT_PLAN))
    res = replicated_kernel_extract(make_circuit("dalu", scale=0.1), 4, faults=inj)
    assert {r.kind for r in inj.records if r.phase == "recovery"} == {
        "detect", "redistribute"
    }
    assert (res.final_lc, res.extractions, _digest(res)) == FAULT_PIN


@pytest.mark.parametrize(
    "name,scale,final_lc,iterations,digest",
    SEQUENTIAL_PINS,
    ids=[f"{p[0]}@{p[1]}" for p in SEQUENTIAL_PINS],
)
def test_pinned_sequential_exhaustive(name, scale, final_lc, iterations, digest):
    before = _replayed()
    net = make_circuit(name, scale=scale)
    meter = CostMeter()
    budget = SearchBudget(5_000_000)
    res = kernel_extract(net, searcher="exhaustive", budget=budget, meter=meter)
    assert (res.final_lc, res.iterations,
            _sequential_digest(net, res, meter, budget)) == (
        final_lc, iterations, digest
    )
    assert _replayed() > before


@pytest.mark.parametrize(
    "name,scale,cap,used,digest",
    EXHAUSTION_PINS,
    ids=[f"{p[0]}@{p[1]}-cap{p[2]}" for p in EXHAUSTION_PINS],
)
def test_pinned_budget_exhaustion(name, scale, cap, used, digest):
    before = _replayed()
    net = make_circuit(name, scale=scale)
    meter = CostMeter()
    budget = SearchBudget(cap)
    with pytest.raises(BudgetExceeded):
        kernel_extract(net, searcher="exhaustive", budget=budget, meter=meter)
    h = hashlib.sha256(write_eqn(net).encode())
    h.update(repr((sorted(meter.counts.items()), budget.used)).encode())
    assert (budget.used, h.hexdigest()[:16]) == (used, digest)
    assert _replayed() > before
