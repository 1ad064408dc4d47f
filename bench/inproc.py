"""Child process that runs one in-process workload (``seq-mcnc`` or
``par-mcnc``) through the library's public entry points.

Protocol with :mod:`run`: the child imports the workload's modules,
prints ``ready`` (the parent's set-up clock stops there), then reads one
JSON config line from stdin.  An empty stdin means the launch only
measured set-up; otherwise the child runs the workload and prints its
result as one JSON line.

Timed passes run whole, until their summed job time reaches the
requested seconds (a pass starts only if at least half a pass of time
remains).  Only the calls into the library are timed: generating inputs,
copying them for the oracle, checking outputs and sampling the core's
speed (:class:`common.Speed`, before and after every job) happen
outside.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List

from repro.circuits.generators import generate_circuit
from repro.machine.costmodel import CostMeter
from repro.obs.tracer import Tracer, use_tracer
from repro.parallel import (
    independent_kernel_extract,
    lshaped_kernel_extract,
    replicated_kernel_extract,
)
from repro.parallel.common import sequential_baseline
from repro.rectangles.cover import kernel_extract
from repro.rectangles.memo import rect_search_snapshot

from common import Speed, equivalent, geomean, peak_rss_mb, percentile, rate
from fold import Fold, merge_counts
import workloads

PARALLEL = {
    "replicated": replicated_kernel_extract,
    "independent": independent_kernel_extract,
    "lshaped": lshaped_kernel_extract,
}

#: Cost-meter kind -> per-layer count metric.
COUNT_METRICS = {
    "kernel_cube_visit": "algebra.kernels.cube_visits",
    "kc_entry": "rectangles.kcmatrix.entries",
    "search_node": "rectangles.search.nodes",
    "pingpong_round": "rectangles.search.pingpong_rounds",
    "divide_node": "rectangles.cover.divides",
    "partition_pass": "partition.passes",
    "cube_state_op": "parallel.cube_state_ops",
}


class JobRun:
    """One job's timing, output and (when traced) spans and counts."""

    __slots__ = ("t0", "t1", "network", "initial_lc", "final_lc",
                 "extractions", "parallel_time", "spans", "counts", "error")

    def __init__(self) -> None:
        self.t0 = self.t1 = 0.0
        self.network = None
        self.initial_lc = 0
        self.final_lc = 0
        self.extractions = 0
        self.parallel_time = 0.0
        self.spans: List[dict] = []
        self.counts: Dict[str, float] = {}
        self.error = None

    @property
    def latency(self) -> float:
        return self.t1 - self.t0


def run_job(job: workloads.Job, network, traced: bool) -> JobRun:
    """Run *job* on *network* (consumed), timing only the library call.

    Traced jobs run under a fresh tracer inside the benchmark's own
    ``bench-job`` span, with a cost meter for the operation counts.
    """
    out = JobRun()
    sequential = job.algorithm == "sequential"
    tracer = Tracer(name=job.label) if traced else None
    meter = CostMeter() if traced and sequential else None
    try:
        if tracer is not None:
            out.t0 = time.perf_counter()
            with use_tracer(tracer), tracer.span("bench-job", cat="bench"):
                res = (kernel_extract(network, meter=meter) if sequential
                       else PARALLEL[job.algorithm](network, workloads.PROCS))
            out.t1 = time.perf_counter()
            out.spans = [sp.to_dict() for sp in tracer.finished()]
            out.counts = (dict(meter.counts) if sequential
                          else merge_counts(out.spans, COUNT_METRICS))
        else:
            out.t0 = time.perf_counter()
            res = (kernel_extract(network) if sequential
                   else PARALLEL[job.algorithm](network, workloads.PROCS))
            out.t1 = time.perf_counter()
        if sequential:
            out.network, out.extractions = network, res.iterations
        else:
            out.network, out.extractions = res.network, res.extractions
            out.parallel_time = res.parallel_time
        out.initial_lc, out.final_lc = res.initial_lc, res.final_lc
    except Exception as exc:  # noqa: BLE001 - a failed job is a result
        out.error = f"{job.label}: {type(exc).__name__}: {exc}"
    return out


def fixed_set_speedups(runs, inputs) -> List[float]:
    """Virtual speedup of each parallel job of the fixed set over the
    sequential ping-pong baseline on the same circuit (Tables 2/3/6)."""
    baselines = {}
    out = []
    for job, res in runs:
        if job.algorithm == "sequential" or res.error is not None:
            continue
        if job.spec not in baselines:
            baselines[job.spec] = sequential_baseline(inputs[job.spec]).time
        if res.parallel_time:
            out.append(baselines[job.spec] / res.parallel_time)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    speed = Speed()
    attempted = failed = 0
    errors: List[str] = []
    raw: List[float] = []      # measured job seconds
    norm: List[float] = []     # the same at reference speed
    pass_times: List[float] = []
    generate_s = 0.0
    fold = Fold()
    traced_s = traced_lits = plain_s = plain_lits = 0.0
    fixed_initial = fixed_final = extractions = 0
    counts: Dict[str, float] = dict.fromkeys(COUNT_METRICS, 0.0)
    speedups: List[float] = []
    memo_before = rect_search_snapshot()

    index = 0
    while True:
        jobs = workloads.inproc_pass(workload, seed, index)
        # In a traced run, odd passes are traced and even ones are not,
        # so the tracing overhead is measured within the run.  Pass 1,
        # the fixed set, is always traced there.
        traced = trace and index % 2 == 1
        t0 = time.perf_counter()
        inputs = {}
        for job in jobs:
            if job.spec not in inputs:
                inputs[job.spec] = generate_circuit(job.spec)
        if index > 0:
            generate_s += time.perf_counter() - t0
        runs = []
        for job in jobs:
            network = inputs[job.spec]
            if job.algorithm == "sequential":
                network = network.copy()   # kernel_extract works in place
            speed.sample(force=True)
            runs.append((job, run_job(job, network, traced)))
        speed.sample(force=True)
        pass_time = 0.0
        for job, res in runs:
            attempted += 1
            if res.error is None and not equivalent(inputs[job.spec], res.network):
                res.error = f"{job.label}: output not equivalent to input"
            if res.error is not None:
                failed += 1
                errors.append(res.error)
                continue
            if index == 0:
                continue
            scale = speed.factor(res.t0, res.t1)
            pass_time += res.latency
            raw.append(res.latency)
            norm.append(res.latency * scale)
            if traced:
                fold.add(res.spans, res.latency, scale=scale)
                traced_s += res.latency * scale
                traced_lits += res.initial_lc
            else:
                plain_s += res.latency * scale
                plain_lits += res.initial_lc
            if index <= workloads.QUALITY_PASSES:
                fixed_initial += res.initial_lc
                fixed_final += res.final_lc
            if index == 1:
                extractions += res.extractions
                for kind, amount in res.counts.items():
                    if kind in counts:
                        counts[kind] += amount
        if trace and index == 1:
            speedups = fixed_set_speedups(runs, inputs)
        if index > 0:
            pass_times.append(pass_time)
            spent = sum(pass_times)
            if (index >= workloads.QUALITY_PASSES
                    and spent + 0.5 * spent / len(pass_times) >= seconds):
                break
        index += 1

    if not raw:   # every job failed; the result reports it as incorrect
        raw = norm = [0.0]
    metrics: Dict[str, float] = {}
    if not trace:
        metrics["latency_p50_ms"] = 1e3 * percentile(norm, 50)
        metrics["latency_p90_ms"] = 1e3 * percentile(norm, 90)
        metrics["throughput_jobs_s"] = rate(len(norm), sum(norm))
        metrics["lc_ratio"] = rate(fixed_final, fixed_initial)
        metrics["peak_rss_mb"] = peak_rss_mb(os.getpid())
    else:
        memo_after = rect_search_snapshot()
        hits = memo_after["rect_memo_hits"] - memo_before["rect_memo_hits"]
        misses = memo_after["rect_memo_misses"] - memo_before["rect_memo_misses"]
        metrics.update(fold.metrics())
        metrics["circuits.generate.ms"] = 1e3 * rate(generate_s * speed.overall(), len(norm))
        metrics["obs.trace_overhead"] = (
            (traced_s / traced_lits) / (plain_s / plain_lits) - 1.0
            if traced_lits and plain_lits else 0.0
        )
        for kind, name in COUNT_METRICS.items():
            metrics[name] = counts[kind]
        metrics["rectangles.cover.extractions"] = float(extractions)
        metrics["rectangles.memo.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        metrics["machine.virtual_speedup"] = (
            geomean(speedups) if workload == "par-mcnc" else 1.0
        )
        metrics.update({
            "serve.cache.gateway_share": 0.0,
            "serve.cache.coalesced_share": 0.0,
            "serve.cache.disk_share": 0.0,
            "serve.cache.memory_share": 0.0,
            "serve.cache.computed_share": 1.0,
        })
    measured = {
        "latency_p50_ms": 1e3 * percentile(raw, 50),
        "latency_p90_ms": 1e3 * percentile(raw, 90),
        "throughput_jobs_s": rate(len(raw), sum(raw)),
        "scale": speed.overall(),
    }
    return {"attempted": attempted, "failed": failed, "errors": errors[:5],
            "metrics": metrics, "measured": measured, "timed_jobs": len(raw)}


def main() -> int:
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        return 0
    cfg = json.loads(line)
    result = run_workload(cfg["workload"], int(cfg["seed"]),
                          float(cfg["seconds"]), bool(cfg["trace"]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
