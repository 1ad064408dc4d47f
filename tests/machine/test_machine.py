import pytest

from repro.machine.costmodel import CostMeter, CostModel, DEFAULT_COST_MODEL
from repro.machine.simulator import SimulatedMachine, sequential_time_of


class TestCostMeter:
    def test_charge_accumulates(self):
        m = CostMeter()
        m.charge("x", 2)
        m.charge("x")
        assert m.counts["x"] == 3

    def test_merge(self):
        a, b = CostMeter(), CostMeter()
        a.charge("x", 1)
        b.charge("x", 2)
        b.charge("y", 5)
        a.merge(b)
        assert a.counts == {"x": 3, "y": 5}

    def test_total_uses_weights(self):
        m = CostMeter()
        m.charge("kernel_cube_visit", 10)
        model = CostModel(weights={"kernel_cube_visit": 2.0})
        assert m.total(model) == 20.0

    def test_unknown_kind_uses_default_weight(self):
        m = CostMeter()
        m.charge("never_heard_of_it", 4)
        model = CostModel(weights={}, default_weight=3.0)
        assert m.total(model) == 12.0

    def test_snapshot_is_copy(self):
        m = CostMeter()
        m.charge("x")
        snap = m.snapshot()
        m.charge("x")
        assert snap == {"x": 1.0}

    def test_reset(self):
        m = CostMeter()
        m.charge("x")
        m.reset()
        assert m.counts == {}


class TestSimulatedMachine:
    def test_phase_advances_only_working_clock(self):
        mach = SimulatedMachine(3)

        def work(proc):
            if proc.pid == 1:
                proc.meter.charge("kc_entry", 100)

        mach.run_phase(work)
        assert mach.procs[1].clock > 0
        assert mach.procs[0].clock == 0

    def test_elapsed_is_max_clock(self):
        mach = SimulatedMachine(2)
        mach.run_phase(lambda p: p.meter.charge("kc_entry", 10 * (p.pid + 1)))
        assert mach.elapsed() == mach.procs[1].clock

    def test_barrier_aligns_clocks(self):
        mach = SimulatedMachine(2)
        mach.run_phase(lambda p: p.meter.charge("kc_entry", 10 * (p.pid + 1)))
        mach.barrier()
        assert mach.procs[0].clock == mach.procs[1].clock
        assert mach.procs[0].clock > mach.model.barrier_cost

    def test_barrier_costs(self):
        mach = SimulatedMachine(2)
        mach.barrier()
        assert all(p.clock == mach.model.barrier_cost for p in mach.procs)

    def test_send_delays_receiver(self):
        mach = SimulatedMachine(2)
        mach.run_phase(lambda p: p.meter.charge("kc_entry", 100), procs=[0])
        sender_before = mach.procs[0].clock
        mach.send(0, 1, words=50)
        assert mach.procs[0].clock > sender_before
        assert mach.procs[1].clock == mach.procs[0].clock

    def test_send_to_self_is_noop(self):
        mach = SimulatedMachine(2)
        mach.send(0, 0, words=1000)
        assert mach.elapsed() == 0

    def test_broadcast_delays_everyone(self):
        mach = SimulatedMachine(4)
        mach.broadcast(0, words=10)
        assert all(p.clock > 0 for p in mach.procs)

    def test_speedup_against(self):
        mach = SimulatedMachine(2)
        mach.run_phase(lambda p: p.meter.charge("kc_entry", 100))
        assert mach.speedup_against(2 * mach.elapsed()) == pytest.approx(2.0)

    def test_total_work_sums_compute(self):
        mach = SimulatedMachine(2)
        mach.run_phase(lambda p: p.meter.charge("kc_entry", 10))
        expected = 2 * 10 * DEFAULT_COST_MODEL.weight("kc_entry")
        assert mach.total_work() == pytest.approx(expected)

    def test_phase_results_in_pid_order(self):
        mach = SimulatedMachine(3)
        assert mach.run_phase(lambda p: p.pid) == [0, 1, 2]

    def test_selected_procs(self):
        mach = SimulatedMachine(3)
        out = mach.run_phase(lambda p: p.pid, procs=[2])
        assert out == [2]

    def test_needs_a_processor(self):
        with pytest.raises(ValueError):
            SimulatedMachine(0)

    def test_phases_recorded(self):
        mach = SimulatedMachine(1)
        mach.run_phase(lambda p: None, name="alpha")
        mach.barrier("beta")
        assert [ph.name for ph in mach.phases] == ["alpha", "beta"]


def test_sequential_time_of():
    m = CostMeter()
    m.charge("kc_entry", 4)
    assert sequential_time_of(m) == 4 * DEFAULT_COST_MODEL.weight("kc_entry")
