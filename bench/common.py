"""Shared helpers: repository paths, statistics, the correctness oracle,
and the result-line format every run prints last."""

from __future__ import annotations

import bisect
import json
import os
import random
import statistics
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Working space for serve cache directories; removed after each run.
WORK_DIR = ROOT / ".bench_work"

#: Random vectors for networks too wide for the exhaustive check.
RANDOM_VECTORS = 2048
EXHAUSTIVE_MAX_INPUTS = 16


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def metric_units(spec: Optional[dict] = None) -> Dict[str, str]:
    """Declared unit of every metric name in ``BENCHMARK.json``."""
    spec = spec if spec is not None else load_spec()
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def child_env() -> Dict[str, str]:
    """Environment for programs the benchmark starts.

    ``REPRO_*`` knobs are dropped so every run measures the defaults a
    user gets, whatever the caller's shell exports.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def peak_rss_mb(pid: int) -> float:
    """High-water resident set (``VmHWM``) of a live process, in MB.

    Not ``ru_maxrss``: after ``exec`` that also holds the high-water
    mark of the parent that forked the process, here the benchmark.
    """
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# CPU-speed normalization
# ----------------------------------------------------------------------

#: CPU seconds :func:`reference_loop` takes on an uncontended core of the
#: 2-vCPU VM the bounds were set on.  Reported times are scaled to it.
REFERENCE_LOOP_S = 0.0016


def reference_loop() -> int:
    """A fixed pure-Python loop that uses no repository code and
    allocates one list, so no change to the repository can alter it."""
    acc = 0
    table = [0] * 1024
    for i in range(12000):
        k = (i * 7919) & 1023
        table[k] += i
        acc ^= table[k] >> 3
    return acc


def reference_loop_s() -> float:
    """CPU seconds of one :func:`reference_loop` on the calling thread."""
    t0 = time.thread_time()
    reference_loop()
    return time.thread_time() - t0


class Speed:
    """How fast the cores run Python, sampled over time.

    A shared VM core runs the same instructions up to 1.8x slower while
    a neighbour is busy, for seconds at a time.  Sampling the reference
    loop between operations (thread CPU time, so waiting for a core does
    not count) and scaling each operation by ``REFERENCE_LOOP_S`` over
    the samples around it removes that swing from the reported times;
    a change to the repository's code moves them as much as before.

    By default a sample measures the calling thread's core, which is
    where an in-process job runs.  With *all_cores* the thread visits
    every core it may run on and a sample is their mean: served work
    runs in other processes, on any core.
    """

    def __init__(self, all_cores: bool = False):
        self.cores = sorted(os.sched_getaffinity(0)) if all_cores else None
        self.at: List[float] = []
        self.took: List[float] = []
        self._lock = threading.Lock()

    def _measure(self) -> float:
        if self.cores is None:
            return reference_loop_s()
        took = []
        try:
            for cpu in self.cores:
                os.sched_setaffinity(0, {cpu})
                took.append(reference_loop_s())
        finally:
            os.sched_setaffinity(0, self.cores)
        return statistics.mean(took)

    def sample(self, force: bool = False) -> None:
        """Run the loop, unless the last sample is under 100 ms old."""
        with self._lock:
            if not force and self.at and time.perf_counter() - self.at[-1] < 0.1:
                return
            took = self._measure()
            self.at.append(time.perf_counter())
            self.took.append(took)

    def factor(self, t0: float, t1: float) -> float:
        """Scale for an operation that ran from *t0* to *t1*
        (``perf_counter``): from the last sample before it through the
        first sample after it."""
        if not self.took:
            return 1.0
        lo = max(0, bisect.bisect_left(self.at, t0) - 1)
        hi = min(len(self.at), bisect.bisect_right(self.at, t1) + 1)
        window = self.took[lo:hi] or self.took[-1:]
        return REFERENCE_LOOP_S / statistics.mean(window)

    def overall(self) -> float:
        """Scale for the whole sampled period."""
        if not self.took:
            return 1.0
        return REFERENCE_LOOP_S / statistics.mean(self.took)


def timed_launch(start: Callable[[], float]) -> Tuple[float, float]:
    """Call *start*, which launches a process and returns the seconds it
    measured, sampling every core's speed around it; return (measured,
    reference-speed) seconds."""
    speed = Speed(all_cores=True)
    speed.sample(force=True)
    t0 = time.perf_counter()
    took = start()
    t1 = time.perf_counter()
    speed.sample(force=True)
    return took, took * speed.factor(t0, t1)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartiles(values: Sequence[float]) -> List[float]:
    """Q1, median, Q3 as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return [v, v, v]
    return statistics.quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (0 for one value)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def rate(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was measured."""
    return numerator / denominator if denominator else 0.0


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return float(statistics.geometric_mean(vals))


# ----------------------------------------------------------------------
# correctness oracle
# ----------------------------------------------------------------------

def equivalent(a, b) -> bool:
    """Whether networks *a* and *b* compute the same primary outputs.

    Exact truth-table comparison up to 16 inputs; beyond that, 2048
    fixed-seed random vectors simulated bit-parallel in one pass of
    :func:`repro.network.simulate.evaluate`.  A network that cannot be
    simulated (an output or input gone missing) is not equivalent.
    """
    from repro.network.simulate import evaluate, exhaustive_equivalence_check

    if set(a.inputs) != set(b.inputs):
        return False
    try:
        if len(a.inputs) <= EXHAUSTIVE_MAX_INPUTS:
            return exhaustive_equivalence_check(a, b)
        outputs = sorted(set(a.outputs) | set(b.outputs))
        rng = random.Random(0)
        assignment = {pi: rng.getrandbits(RANDOM_VECTORS)
                      for pi in sorted(a.inputs)}
        va = evaluate(a, assignment, width=RANDOM_VECTORS)
        vb = evaluate(b, assignment, width=RANDOM_VECTORS)
        return all(va[o] == vb[o] for o in outputs)
    except (KeyError, ValueError):
        return False


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

def result_object(correct: bool, attempted: int, failed: int,
                  values: Mapping[str, float],
                  units: Mapping[str, str]) -> dict:
    """The one-line JSON result: every metric with its declared unit."""
    metrics = {}
    for name, value in values.items():
        if name not in units:
            raise KeyError(f"metric {name!r} is not declared in BENCHMARK.json")
        metrics[name] = {"value": value, "unit": units[name]}
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}
