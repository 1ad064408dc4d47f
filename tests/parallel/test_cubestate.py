"""Unit tests of the Table 5 cube-state protocol."""

from repro.machine.costmodel import CostMeter
from repro.parallel.cubestate import CubeStateStore, CubeStatus

REF_A = ("F", (1, 2, 3))  # a 3-literal cube of node F
REF_B = ("G", (4, 5))


class TestFreeState:
    def test_untouched_cube_is_free(self):
        s = CubeStateStore()
        assert s.status(REF_A) is CubeStatus.FREE

    def test_free_value_is_literal_count(self):
        s = CubeStateStore()
        assert s.value(REF_A, asking_pid=0) == 3
        assert s.value(REF_B, asking_pid=1) == 2


class TestCoveredState:
    def test_owner_sees_trueval(self):
        """Table 5: the owner may still improve its best rectangle."""
        s = CubeStateStore()
        s.cover([REF_A], pid=2)
        assert s.status(REF_A) is CubeStatus.COVERED
        assert s.value(REF_A, asking_pid=2) == 3

    def test_non_owner_sees_zero(self):
        """Table 5: non-owners cannot change the owner's best rectangle."""
        s = CubeStateStore()
        s.cover([REF_A], pid=2)
        assert s.value(REF_A, asking_pid=0) == 0
        assert s.value(REF_A, asking_pid=5) == 0

    def test_first_coverer_wins(self):
        s = CubeStateStore()
        s.cover([REF_A], pid=0)
        s.cover([REF_A], pid=1)  # late claim ignored
        assert s.value(REF_A, asking_pid=0) == 3
        assert s.value(REF_A, asking_pid=1) == 0

    def test_recover_by_owner_is_idempotent(self):
        s = CubeStateStore()
        s.cover([REF_A], pid=0)
        s.cover([REF_A], pid=0)
        assert s.value(REF_A, asking_pid=0) == 3


class TestDividedState:
    def test_divided_is_zero_for_everyone(self):
        s = CubeStateStore()
        s.cover([REF_A], pid=1)
        s.divide([REF_A])
        assert s.status(REF_A) is CubeStatus.DIVIDED
        assert s.value(REF_A, asking_pid=1) == 0
        assert s.value(REF_A, asking_pid=0) == 0

    def test_divided_is_final(self):
        s = CubeStateStore()
        s.divide([REF_A])
        s.cover([REF_A], pid=0)  # cannot resurrect
        assert s.status(REF_A) is CubeStatus.DIVIDED
        s.release_owner(0)
        assert s.status(REF_A) is CubeStatus.DIVIDED

    def test_divide_without_cover(self):
        s = CubeStateStore()
        s.divide([REF_B])
        assert s.value(REF_B, asking_pid=3) == 0


class TestOrderIndependence:
    def test_search_order_bias_removed(self):
        """The end-of-Section-5.3 scenario: after covering its first-found
        rectangle's cubes, the owner re-evaluating a bigger overlapping
        rectangle must see true values, while others see zero."""
        s = CubeStateStore()
        first = [("G", (8,)), ("G", (9,)), ("G", (10,)), ("G", (11,))]
        s.cover(first, pid=0)
        # Processor 0 evaluating the bigger rectangle sees full values:
        assert sum(s.value(r, 0) for r in first) == 4
        # Processor 1 sees nothing:
        assert sum(s.value(r, 1) for r in first) == 0


def test_meter_charged():
    s = CubeStateStore()
    m = CostMeter()
    s.cover([REF_A], pid=0, meter=m)
    s.value(REF_A, 0, meter=m)
    s.divide([REF_A], meter=m)
    assert m.counts["cube_state_op"] == 3
