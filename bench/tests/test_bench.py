"""Tests of the benchmark itself: deterministic inputs, declared metric
names, the trace fold, and a miniature run of every workload.

Run from the repository root::

    PYTHONPATH=src python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from collections import Counter

import pytest

import common
import fold
import run
import workloads
from repro.circuits.generators import generate_circuit
from repro.network.eqn import write_eqn

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def test_inproc_passes_are_deterministic_in_workload_and_seed():
    for workload in workloads.IN_PROCESS:
        a = workloads.inproc_pass(workload, 3, 1)
        assert a == workloads.inproc_pass(workload, 3, 1)
        assert a != workloads.inproc_pass(workload, 4, 1)
        assert a != workloads.inproc_pass(workload, 3, 2)
    # Same spec, same network: compare the warm-up pass's circuits.
    for job in workloads.inproc_pass("seq-mcnc", 3, 0):
        assert write_eqn(generate_circuit(job.spec)) == write_eqn(
            generate_circuit(job.spec))


def test_served_streams_are_deterministic():
    for i in range(6):
        assert workloads.cold_job(5, i) == workloads.cold_job(5, i)
        assert workloads.cold_job(5, i) != workloads.cold_job(6, i)
        assert workloads.cold_job(5, i) != workloads.cold_job(5, i, warmup=True)
    assert workloads.warm_catalogue(5) == workloads.warm_catalogue(5)
    assert [j.algorithm for j in (workloads.cold_job(0, i) for i in range(3))] \
        == list(workloads.COLD_ALGORITHMS)


def test_zipf_draws_are_deterministic_and_skewed():
    first = [workloads.warm_request(7, i) for i in range(3000)]
    assert first == [workloads.warm_request(7, i) for i in range(3000)]
    assert first != [workloads.warm_request(8, i) for i in range(3000)]
    fresh = [i for i, (key, job) in enumerate(first) if job is not None]
    assert fresh == list(range(workloads.WARM_FRESH_EVERY // 2, 3000,
                               workloads.WARM_FRESH_EVERY))
    counts = Counter(key for key, job in first if job is None)
    assert set(counts) <= set(range(workloads.WARM_CATALOGUE))
    # Zipf(1): entry 0 is drawn about twice as often as entry 1.
    assert counts.most_common(1)[0][0] == 0
    assert 1.5 < counts[0] / counts[1] < 2.7


def test_results_do_not_depend_on_the_hash_seed():
    code = (
        "import sys; sys.path[:0] = ['bench', 'src'];"
        "import workloads;"
        "from repro.circuits.generators import generate_circuit;"
        "from repro.rectangles.cover import kernel_extract;"
        "from repro.network.eqn import write_eqn;"
        "net = generate_circuit(workloads.cold_job(0, 1).spec);"
        "r = kernel_extract(net); print(r.final_lc); print(write_eqn(net))"
    )
    outs = set()
    for hash_seed in ("1", "2"):
        env = common.child_env()
        env["PYTHONHASHSEED"] = hash_seed
        outs.add(subprocess.run([sys.executable, "-c", code], cwd=common.ROOT,
                                env=env, capture_output=True, text=True,
                                check=True).stdout)
    assert len(outs) == 1


# ----------------------------------------------------------------------
# BENCHMARK.json and metric names
# ----------------------------------------------------------------------

def test_benchmark_json_is_well_formed():
    spec = common.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]), m
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for w in spec["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


# ----------------------------------------------------------------------
# the fold
# ----------------------------------------------------------------------

def _span(id, name, t0, t1, parent=None, cat="", **extra):
    sp = {"id": id, "name": name, "cat": cat, "t0": t0, "t1": t1}
    if parent is not None:
        sp["parent"] = parent
    sp.update(extra)
    return sp


def test_fold_self_times_and_closure_on_a_merged_trace():
    # client 0..10 > request 1..9 > dispatch 2..8 > worker-factor 3..7
    #   > job 3.5..6.5 > kernel-gen 4..5 and rect-search 5..6;
    # a zero-width cache-hit event hangs off the request.
    spans = [
        _span(0, "client", 0.0, 10.0),
        _span(1, "request", 1.0, 9.0, 0),
        _span(2, "dispatch", 2.0, 8.0, 1),
        _span(3, "worker-factor", 3.0, 7.0, 2),
        _span(4, "job", 3.5, 6.5, 3),
        _span(5, "kernel-gen", 4.0, 5.0, 4, cat="seq"),
        _span(6, "rect-search", 5.0, 6.0, 4, cat="seq"),
        _span(7, "cache-hit", 1.5, 1.5, 1),
    ]
    selfs = fold.self_times(spans)
    assert selfs == {0: 2.0, 1: 2.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 1.0,
                     6: 1.0, 7: 0.0}
    f = fold.Fold()
    f.add(spans, 10.0)
    m = f.metrics()
    assert m["closure"] == pytest.approx(1.0)
    assert m["serve.httpio.share"] == pytest.approx(0.2)
    assert m["serve.pipe.share"] == pytest.approx(0.2)
    assert m["algebra.kernels.ms"] == pytest.approx(1000.0)
    assert m["entry.ms"] == pytest.approx(1000.0)
    # Two jobs, the second weighted as three.
    f.add(spans, 10.0, weight=3.0)
    assert f.metrics()["rectangles.search.ms"] == pytest.approx(1000.0)
    assert f.metrics()["closure"] == pytest.approx(1.0)


def test_fold_closure_exposes_overlap_and_misnesting():
    overlapping = [
        _span(0, "bench-job", 0.0, 4.0),
        _span(1, "kc-build", 0.0, 3.0, 0),
        _span(2, "rect-search", 1.0, 4.0, 0),
    ]
    f = fold.Fold()
    f.add(overlapping, 4.0)
    assert f.closure() == pytest.approx(6.0 / 4.0)
    escaping = [
        _span(0, "bench-job", 0.0, 4.0),
        _span(1, "kc-build", 3.0, 6.0, 0),
    ]
    f = fold.Fold()
    f.add(escaping, 4.0)
    assert f.closure() == pytest.approx(6.0 / 4.0)
    assert fold.self_times(escaping)[0] == pytest.approx(3.0)


def test_fold_machine_and_cost_model_accounting():
    spans = [
        _span(0, "bench-job", 0.0, 4.0),
        _span(1, "kernel-gen", 0.0, 1.0, 0, cat="seq", v0=0.0, v1=1.0),
        _span(2, "kc-build", 1.0, 4.0, 0, cat="seq", v0=1.0, v1=2.0),
        _span(3, "step-sync", 4.0, 4.0, 0, cat="sync", v0=0.0, v1=3.0),
        _span(4, "rect-search", 4.0, 4.0, 0, cat="phase", v0=0.0, v1=1.0,
              counters={"search_node": 5.0}),
    ]
    f = fold.Fold()
    f.add(spans, 4.0)
    m = f.metrics()
    # virtual shares 0.5/0.5 against host shares 0.25/0.75
    assert m["machine.cost_model_max_dev"] == pytest.approx(0.25)
    assert m["machine.sync_share"] == pytest.approx(0.75)
    assert fold.merge_counts(spans, ["search_node"]) == {"search_node": 5.0}


# ----------------------------------------------------------------------
# miniature runs of every workload
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def miniature_runs():
    out = {}
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            t0 = time.perf_counter()
            result = run.run_once(workload, 0, 0.5, trace)
            out[workload, trace] = (result, time.perf_counter() - t0)
    return out


def test_every_workload_runs_correctly_in_under_a_minute(miniature_runs):
    for (workload, trace), (result, took) in miniature_runs.items():
        assert took < 60, (workload, trace, took)
        assert result["correct"], (workload, trace, result["errors"])
        assert result["attempted"] > 0


def test_every_emitted_metric_is_declared(miniature_runs):
    spec = common.load_spec()
    for (workload, trace), (result, _) in miniature_runs.items():
        names = set(result["metrics"])
        assert names == set(run.declared(spec, trace)), (workload, trace)
        assert all(NAME.match(n) for n in names)
        obj = common.result_object(result["correct"], result["attempted"],
                                   result["failed"], result["metrics"],
                                   common.metric_units(spec))
        json.dumps(obj)
        if not trace:
            assert all(v["value"] > 0 for v in obj["metrics"].values()), workload
        else:
            assert abs(obj["metrics"]["closure"]["value"] - 1) <= run.CLOSURE_TOLERANCE
