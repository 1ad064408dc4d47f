"""FaultPlan: parsing, normalization, serialization, resolution."""

import pytest

from repro.faults import FaultEvent, FaultPlan, resolve_fault_injector


def test_parse_render_roundtrip():
    spec = "crash:1@3,slow:2x4@5-12,drop:7*3,corrupt:4,dup:9"
    plan = FaultPlan.parse(spec)
    assert FaultPlan.parse(plan.render()).events == plan.events


def test_parse_defaults():
    plan = FaultPlan.parse("crash:1,slow:0,drop:3")
    kinds = {ev.kind: ev for ev in plan.events}
    assert kinds["crash"].at == 4
    assert kinds["slow"].factor == 4.0
    assert kinds["slow"].until == kinds["slow"].at + 15
    assert kinds["drop"].attempts == 1


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        FaultPlan.parse("explode:1@2")
    with pytest.raises(ValueError):
        FaultPlan.parse("crash:notanumber")
    with pytest.raises(ValueError):
        FaultPlan.parse("backend:0")


def test_crash_normalized_to_op_one():
    plan = FaultPlan(events=(FaultEvent("crash", pid=0, at=0),))
    assert plan.events[0].at == 1


def test_events_sorted_canonically():
    plan = FaultPlan.parse("drop:9,crash:0@2,slow:1x2@2-4")
    assert [ev.at for ev in plan.events] == sorted(ev.at for ev in plan.events)


def test_to_from_dict_roundtrip():
    plan = FaultPlan.parse("crash:1@3,drop:5*2", max_retransmits=1)
    again = FaultPlan.from_dict(plan.to_dict())
    assert again == plan


def test_random_single_deterministic():
    a = FaultPlan.random_single(7, 4)
    b = FaultPlan.random_single(7, 4)
    assert a.render() == b.render()
    assert a.render() != FaultPlan.random_single(8, 4).render()
    crashes = [ev for ev in a.events if ev.kind == "crash"]
    assert len(crashes) == 1 and 0 <= crashes[0].pid < 4


def test_resolve_empty_plan_is_none():
    assert resolve_fault_injector(FaultPlan.none()) is None
    assert resolve_fault_injector(None) is None  # no env, no plan


def test_env_plan_is_ignored(monkeypatch):
    """No environment variable injects faults: a plan is passed or absent.

    A process-wide plan would reach every parallel run in the process,
    bench runs and serve workers included, whose cache keys exclude
    faults.  ``faults=`` and ``repro chaos --plan`` are the only routes.
    """
    from repro.circuits.mcnc import make_circuit
    from repro.parallel.lshaped import lshaped_kernel_extract

    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_SEED", raising=False)
    plain = lshaped_kernel_extract(make_circuit("dalu", scale=0.1), 4)
    monkeypatch.setenv("REPRO_FAULTS", "crash:1@3")
    monkeypatch.setenv("REPRO_FAULTS_SEED", "5")
    assert resolve_fault_injector(None) is None
    run = lshaped_kernel_extract(make_circuit("dalu", scale=0.1), 4)
    assert (run.final_lc, run.parallel_time, run.proc_clocks) == (
        plain.final_lc, plain.parallel_time, plain.proc_clocks)


def test_resolve_passes_injector_through():
    from repro.faults import FaultInjector

    inj = FaultInjector(FaultPlan.parse("drop:1"), seed=2)
    assert resolve_fault_injector(inj) is inj
