import pytest

from repro.harness.calibration import ProfilePoint, derive_weights, profile_workloads


class TestProfileWorkloads:
    @pytest.fixture(scope="class")
    def points(self):
        return profile_workloads(repeats=1)

    def test_all_workloads_measured(self, points):
        assert {p.name for p in points} == {
            "kernels", "matrix", "exhaustive", "pingpong", "divide",
        }
        assert all(p.seconds > 0 for p in points)

    def test_dominant_kinds_distinct_enough(self, points):
        by_name = {p.name: p.dominant_kind() for p in points}
        assert by_name["kernels"] == "kernel_cube_visit"
        assert by_name["matrix"] in ("kc_entry", "kernel_cube_visit")
        assert by_name["exhaustive"] == "search_node"
        assert by_name["pingpong"] == "pingpong_round"

    def test_derive_weights(self, points):
        weights = derive_weights(points)
        assert weights["kernel_cube_visit"] == pytest.approx(1.0)
        for k, w in weights.items():
            assert w > 0

    def test_heavier_ops_cost_more(self, points):
        """The frozen model's ordering: a division or search node costs
        more than a single kernel-cube visit."""
        weights = derive_weights(points)
        if "divide_node" in weights:
            assert weights["divide_node"] > 1.0


def test_derive_weights_requires_base():
    with pytest.raises(ValueError):
        derive_weights(
            [ProfilePoint(name="x", seconds=1.0, counts={"search_node": 10})]
        )


def test_every_repeat_runs_a_real_exhaustive_search():
    """The search_node weight is derived from the repeats' mean time, so
    each repeat must walk the search tree, not replay a cached answer."""
    from repro.rectangles.memo import GLOBAL_SEARCH_STATS

    before = GLOBAL_SEARCH_STATS.snapshot()
    profile_workloads(repeats=3)
    after = GLOBAL_SEARCH_STATS.snapshot()
    assert after["searches"] == before["searches"] + 3
    # No repeat replays the anchors the previous one recorded.
    assert after["anchors_replayed"] == before["anchors_replayed"]


def test_every_repeat_runs_a_real_pingpong_search():
    """The pingpong_round weight is derived the same way, so no repeat
    may replay the previous search's recorded ascents."""
    from repro.obs.tracer import Tracer, use_tracer
    from repro.rectangles import pingpong

    seen = []
    real = pingpong.add_counters

    def recording(**counters):
        seen.append(counters)
        real(**counters)

    tracer = Tracer()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pingpong, "add_counters", recording)
        with use_tracer(tracer), tracer.span("calibrate"):
            profile_workloads(repeats=3)
    # The pingpong workload's three 64-seed searches (the divide
    # workload searches fresh matrices with 16 seeds).
    repeats = [c for c in seen if c["ascent_seed"] == 64]
    assert len(repeats) == 3
    assert all(c["ascents_reused"] == 0 for c in repeats)
