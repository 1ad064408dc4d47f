"""The profiler's core invariant, on every factorization path.

Per-track virtual-time totals reconstructed from the span trace must
agree with the authoritative accounting they claim to attribute: the
simulated machine's final per-processor clocks (== the PhaseReport sum
plus stalls) on the three parallel paths, and the cost-model compute
time of the metered run on the two sequential paths.
"""

import pytest

from repro.circuits import load_circuit
from repro.machine.costmodel import CostMeter, DEFAULT_COST_MODEL
from repro.obs.profile import PROFILE_ALGORITHMS, profile_run
from repro.obs.tracer import Tracer, use_tracer

TOL = 1e-6
NPROCS = 3


@pytest.fixture(autouse=True)
def _no_ambient_tracer():
    with use_tracer(None):
        yield


@pytest.fixture()
def network():
    return load_circuit("example")


@pytest.mark.parametrize("searcher", ["exhaustive", "pingpong"])
def test_sequential_totals_match_cost_model(network, searcher):
    from repro.rectangles.cover import kernel_extract

    tracer = Tracer()
    meter = CostMeter()
    with use_tracer(tracer):
        kernel_extract(network.copy(), meter=meter, searcher=searcher)
    expected = DEFAULT_COST_MODEL.compute_time(meter.counts)
    totals = tracer.track_virtual_totals()
    assert totals, "sequential run emitted no spans"
    assert max(totals.values()) == pytest.approx(expected, abs=TOL)
    # Nested spans never run past the clock they report against.
    for sp in tracer.finished():
        assert sp.v1 is None or sp.v1 <= expected + TOL


@pytest.mark.parametrize("algorithm", ["replicated", "independent", "lshaped"])
def test_parallel_totals_match_machine_clocks(network, algorithm):
    prof = profile_run(network, algorithm=algorithm, nprocs=NPROCS)
    assert len(prof.proc_clocks) == NPROCS
    totals = prof.tracer.track_virtual_totals()
    for pid, clock in enumerate(prof.proc_clocks):
        assert totals[pid] == pytest.approx(clock, abs=TOL), (
            f"{algorithm} pid {pid}"
        )
    assert max(prof.proc_clocks) == pytest.approx(prof.parallel_time, abs=TOL)
    # profile_run(check=True) already ran check_clocks(); make the
    # negative direction explicit too: tampering must be caught.
    prof.proc_clocks[0] += 1.0
    from repro.obs.profile import ProfileMismatch

    with pytest.raises(ProfileMismatch):
        prof.check_clocks()


def test_parallel_phase_reports_are_traced(network):
    """Every machine PhaseReport shows up as spans in the trace."""
    from repro.machine.simulator import SimulatedMachine
    from repro.parallel.replicated import replicated_kernel_extract

    tracer = Tracer()
    run = replicated_kernel_extract(network, NPROCS, tracer=tracer)
    span_names = {sp.name for sp in tracer.finished()}
    assert "kc-build" in span_names
    assert "extract-commit" in span_names
    # Tracer passed by kwarg, not installed globally: the ambient
    # tracer stays off while per-run spans still flow.
    assert run.proc_clocks is not None


def test_profile_run_covers_all_algorithms(network):
    for algorithm in PROFILE_ALGORITHMS:
        prof = profile_run(network, algorithm=algorithm, nprocs=2)
        assert prof.final_lc <= prof.initial_lc
        rows = prof.phase_rows()
        assert rows and abs(sum(r["share"] for r in rows) - 100.0) < 1e-6
        rendered = prof.render()
        assert "Phase breakdown" in rendered
        payload = prof.to_dict()
        assert payload["schema"] == "repro.obs.profile/1"


def test_search_counters_reach_the_trace(network):
    prof = profile_run(network, algorithm="sequential", searcher="pingpong")
    counters = prof.tracer.counter_totals()
    assert counters.get("pingpong_round_visit", 0) > 0
    assert counters.get("ascent_seed", 0) > 0
    prof = profile_run(network, algorithm="sequential", searcher="exhaustive")
    counters = prof.tracer.counter_totals()
    assert counters.get("search_node_visit", 0) > 0
