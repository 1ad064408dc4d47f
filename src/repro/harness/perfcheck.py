"""Rectangle-search timing: the repo's perf trajectory.

This module is the shared engine behind ``scripts/perf_check.py`` (the
CLI / CI perf-smoke runner) and ``benchmarks/bench_bitview_search.py``
(the pytest-benchmark wrapper).  It runs a fixed workload suite — the
MCNC stand-in circuits plus the paper's worked examples — and writes
the JSON of ``benchmarks/results/BENCH_rectsearch.json``:

- exhaustive rows time the v1 full enumeration (the
  :func:`~repro.rectangles.search.enumerate_rectangles` stream, folded
  to its best rectangle) against the v2 branch-and-bound search of
  :func:`~repro.rectangles.search.best_rectangle_exhaustive` and report both
  times, both node counts, the v2 speedup and the suite's v2 geomean;
- ping-pong rows report one time and the rounds per second.

Every exhaustive pair is also cross-checked: a workload where v2 is
not equal-or-better than v1 is reported as a failure, so the perf
harness doubles as an end-to-end differential test on real matrices.

The harness also polices the observability layer itself: every run
measures the per-call cost of the *disabled* tracing fast path and
bounds the estimated overhead it adds to the hot search loops
(:data:`MAX_TRACE_OVERHEAD`, gated under ``--check``).  With tracing
enabled (``REPRO_TRACE=1``) each workload row additionally carries its
phase breakdown and hot-loop counters, so the persisted JSON pairs every
speedup with where the time went.
"""

from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.circuits.examples import paper_example_network
from repro.circuits.mcnc import make_circuit
from repro.machine.costmodel import CostMeter
from repro.network.boolean_network import BooleanNetwork
from repro.rectangles.kcmatrix import KCMatrix, build_kc_matrix
from repro.rectangles.pingpong import best_rectangle_pingpong, pingpong_candidates
from repro.rectangles.search import (
    BudgetExceeded,
    SearchBudget,
    best_rectangle_exhaustive,
    enumerate_rectangles,
)

#: JSON schema version for BENCH_rectsearch.json.
SCHEMA = "rectsearch/4"

#: The --check floor for the v2 pruned search's geomean speedup over
#: v1 full enumeration on the suite's exhaustive workloads.
MIN_V2_SPEEDUP = 1.4

#: Ceiling on the estimated fraction of a workload's wall time spent in
#: disabled tracing gates — the price of observability when it is off.
MAX_TRACE_OVERHEAD = 0.02

#: Same ceiling for the disabled fault-injection gates (``machine.faults
#: is None`` tests in the simulator's primitives): chaos readiness must
#: be free when no plan is attached.
MAX_FAULT_OVERHEAD = 0.02

#: Ceiling for the *enabled* flight recorder: unlike tracing and fault
#: injection it is always on in the serving tier, so the budget prices
#: the live ``record()`` ring append, not a disabled gate.
MAX_FLIGHT_OVERHEAD = 0.02

#: Ceiling for the disabled job-journal gates (``self.journal is not
#: None`` tests on the gateway request path): running ``--no-journal``
#: must cost essentially nothing.  The enabled per-append price is
#: measured and reported alongside for context.
MAX_JOURNAL_OVERHEAD = 0.02


@dataclass(frozen=True)
class Workload:
    """One timed search task: a circuit's KC matrix under one searcher."""

    name: str
    circuit: str
    scale: float
    searcher: str  # "exhaustive" | "pingpong" | "pingpong-all"
    budget: Optional[int] = None  # exhaustive node cap (None = unbounded)
    max_seeds: Optional[int] = 64
    repeats: int = 3


#: The full suite: exhaustive search on the matrices the replicated
#: algorithm can finish, budget-truncated exhaustive search on the
#: matrices it cannot (the paper's DNF regime: spla/ex1010), the seeded
#: ping-pong heuristic the sequential baseline runs, and all-seeds
#: ping-pong as used by the timing-driven extraction loop.  Workload
#: sizes are chosen so each timing is a few to a few hundred
#: milliseconds — large enough that best-of-repeats wall time measures
#: the search, not timer noise (the sub-millisecond paper example eq1
#: is timed in the quick suite and cross-checked for equivalence
#: everywhere).
FULL_SUITE: List[Workload] = [
    Workload("misex3@1/exhaustive", "misex3", 1.0, "exhaustive",
             budget=1_000_000, repeats=5),
    Workload("dalu@0.4/exhaustive", "dalu", 0.4, "exhaustive",
             budget=500_000, repeats=5),
    Workload("seq@0.2/exhaustive", "seq", 0.2, "exhaustive",
             budget=500_000, repeats=5),
    Workload("spla@0.2/exhaustive-dnf", "spla", 0.2, "exhaustive",
             budget=100_000, repeats=3),
    Workload("ex1010@0.2/exhaustive-dnf", "ex1010", 0.2, "exhaustive",
             budget=100_000, repeats=3),
    Workload("misex3@1/pingpong", "misex3", 1.0, "pingpong",
             max_seeds=256, repeats=5),
    Workload("des@0.5/pingpong", "des", 0.5, "pingpong",
             max_seeds=256, repeats=5),
    Workload("dalu@0.5/pingpong-all", "dalu", 0.5, "pingpong-all",
             max_seeds=None, repeats=5),
    Workload("des@1/pingpong-all", "des", 1.0, "pingpong-all",
             max_seeds=None, repeats=3),
    Workload("seq@0.5/pingpong-all", "seq", 0.5, "pingpong-all",
             max_seeds=None, repeats=3),
    Workload("spla@0.5/pingpong-all", "spla", 0.5, "pingpong-all",
             max_seeds=None, repeats=3),
    Workload("ex1010@0.4/pingpong-all", "ex1010", 0.4, "pingpong-all",
             max_seeds=None, repeats=3),
]

#: The CI smoke suite: same shape, miniature sizes, single repeat.
QUICK_SUITE: List[Workload] = [
    Workload("eq1/exhaustive", "eq1", 1.0, "exhaustive", repeats=2),
    Workload("misex3@0.1/exhaustive", "misex3", 0.1, "exhaustive",
             budget=100_000, repeats=2),
    Workload("dalu@0.1/exhaustive-dnf", "dalu", 0.1, "exhaustive",
             budget=20_000, repeats=2),
    Workload("dalu@0.2/pingpong", "dalu", 0.2, "pingpong", repeats=2),
    Workload("des@0.2/pingpong", "des", 0.2, "pingpong", repeats=2),
]


def _build_network(wl: Workload) -> BooleanNetwork:
    if wl.circuit == "eq1":
        return paper_example_network()
    return make_circuit(wl.circuit, scale=wl.scale)


def _run_searcher(
    wl: Workload, matrix: KCMatrix,
    meter: Optional[CostMeter] = None, v1: bool = False,
):
    """One full search; returns a comparable result object.

    Exhaustive workloads run the v2 search, or with *v1* the full
    enumeration stream, folded to its highest gain with ties to the
    smallest ``(cols, rows)`` — the rectangle v2 must return.
    """
    if wl.searcher == "exhaustive":
        budget = SearchBudget(wl.budget) if wl.budget is not None else None
        try:
            if v1:
                return ("done", min(
                    enumerate_rectangles(matrix, budget=budget, meter=meter),
                    key=lambda rg: (-rg[1], rg[0].cols, rg[0].rows),
                    default=None,
                ))
            return ("done", best_rectangle_exhaustive(
                matrix, budget=budget, meter=meter,
            ))
        except BudgetExceeded:
            return ("dnf", budget.used)
    if wl.searcher == "pingpong":
        return ("done", best_rectangle_pingpong(
            matrix, max_seeds=wl.max_seeds, meter=meter
        ))
    if wl.searcher == "pingpong-all":
        return ("done", pingpong_candidates(
            matrix, max_seeds=wl.max_seeds, meter=meter
        ))
    raise ValueError(f"unknown searcher {wl.searcher!r}")


def _time_search(
    wl: Workload, matrix: KCMatrix, v1: bool = False,
) -> Tuple[float, object, float]:
    """Best-of-repeats wall time; returns (seconds, result, work units).

    Work units are search nodes for exhaustive workloads and ping-pong
    rounds otherwise.  Both bitset forms are dropped before every repeat
    so each timing pays the full compile-plus-search cost.
    """
    meter = CostMeter()
    result = _run_searcher(wl, matrix, meter=meter, v1=v1)
    units = meter.counts.get("search_node", 0.0) or meter.counts.get(
        "pingpong_round", 0.0
    )
    best = math.inf
    for _ in range(wl.repeats):
        matrix._touch()  # drop the bitset forms: time compile + search
        t0 = time.perf_counter()
        _run_searcher(wl, matrix, v1=v1)
        best = min(best, time.perf_counter() - t0)
    return best, result, units


def run_workload(wl: Workload) -> Dict:
    """Time one workload (v1 against v2 when exhaustive).

    When tracing is enabled the timings above ran *traced* (that is the
    point of profiling a perf run), and the row gains a ``phases`` /
    ``counters`` pair taken from one traced default search, so the
    persisted report says both how fast and where the time went.
    """
    from repro import obs

    net = _build_network(wl)
    matrix = build_kc_matrix(net)
    row = {
        "name": wl.name,
        "circuit": wl.circuit,
        "scale": wl.scale,
        "searcher": wl.searcher,
        "rows": matrix.num_rows,
        "cols": matrix.num_cols,
        "entries": matrix.num_entries,
    }
    if wl.searcher == "exhaustive":
        # "Equal or better" means: identical best rectangle, or v1 hit
        # the node budget (DNF) where v2 either also hit it or —
        # strictly better — finished inside it.
        t_v1, res_v1, nodes_v1 = _time_search(wl, matrix, v1=True)
        t_v2, res_v2, nodes_v2 = _time_search(wl, matrix)
        v2_ok = (
            res_v2 == res_v1
            or (res_v1[0] == "dnf" and res_v2[0] in ("dnf", "done"))
        )
        row.update({
            "nodes_v1": nodes_v1,
            "nodes_v2": nodes_v2,
            "t_v1_s": t_v1,
            "t_v2_s": t_v2,
            "speedup_v2": t_v1 / t_v2 if t_v2 else None,
            "node_reduction": nodes_v1 / nodes_v2 if nodes_v2 else None,
            "v2_results_ok": v2_ok,
        })
    else:
        t, _, rounds = _time_search(wl, matrix)
        row.update({
            "pingpong_rounds": rounds,
            "t_s": t,
            "rounds_per_sec": rounds / t if t else None,
        })
    if obs.enabled():
        tracer = obs.Tracer(name=wl.name)
        with obs.use_tracer(tracer), obs.span(wl.name, cat="perfcheck"):
            matrix._touch()
            _run_searcher(wl, matrix)
        row["phases"] = tracer.phase_breakdown()
        row["counters"] = tracer.counter_totals()
    return row


def measure_trace_overhead(wl: Optional[Workload] = None) -> Dict:
    """Bound what disabled tracing costs the hot loops, empirically.

    Two per-call prices are measured directly: the ``active_tracer()``
    gate the search loops hoist once per call, and a full disabled
    ``span()`` enter/exit (the heavier shape used at phase boundaries).
    One workload is then run *traced* to count how many trace-API events
    it would emit; the estimated disabled overhead is that event count
    priced at the heavier per-call cost, over the workload's untraced
    wall time.  Deliberately pessimistic — the real disabled path pays
    the cheap gate for most of those events.
    """
    from repro import obs
    from repro.obs.tracer import active_tracer, span

    wl = wl or QUICK_SUITE[-1]
    reps = 200_000
    with obs.use_tracer(None):
        t0 = time.perf_counter()
        for _ in range(reps):
            active_tracer()
        gate_ns = (time.perf_counter() - t0) / reps * 1e9
        t0 = time.perf_counter()
        for _ in range(reps):
            with span("overhead-probe"):
                pass
        span_ns = (time.perf_counter() - t0) / reps * 1e9

        net = _build_network(wl)
        matrix = build_kc_matrix(net)
        t_off, _, _ = _time_search(wl, matrix)

    tracer = obs.Tracer(name="overhead")
    with obs.use_tracer(tracer), obs.span(wl.name, cat="perfcheck"):
        matrix._touch()
        _run_searcher(wl, matrix)
    spans = tracer.finished()
    # Each span is one enter/exit pair; each counter key is one hot-loop
    # attachment.  Counter *values* (e.g. thousands of node visits) cost
    # nothing when disabled — the loops only pay the hoisted gate.
    events = len(spans) + sum(len(sp.counters) for sp in spans)
    overhead = (events * span_ns) / (t_off * 1e9) if t_off else 0.0
    return {
        "workload": wl.name,
        "gate_ns_per_call": gate_ns,
        "span_ns_per_call": span_ns,
        "trace_events": events,
        "t_untraced_s": t_off,
        "estimated_overhead": overhead,
        "max_overhead": MAX_TRACE_OVERHEAD,
        "ok": overhead <= MAX_TRACE_OVERHEAD,
    }


def measure_fault_overhead() -> Dict:
    """Bound what the disabled fault-injection gates cost, empirically.

    The simulated machine consults ``self.faults`` (one attribute fetch
    plus an ``is None`` test) in every primitive — top-level operations,
    message sends, backend map calls.  That per-call gate is priced
    directly; one parallel workload is then run fault-free for its wall
    time and once more under an *idle* injector (a plan whose single
    event can never fire) purely to count how many operation indices the
    run consumes.  The estimated disabled overhead prices every counted
    index at three gate calls — deliberately pessimistic, since most
    primitives test the attribute once.
    """
    from repro.faults import FaultInjector, FaultPlan
    from repro.parallel.lshaped import lshaped_kernel_extract

    class _Gated:
        faults = None

    gated = _Gated()
    hits = 0
    reps = 200_000
    t0 = time.perf_counter()
    for _ in range(reps):
        if gated.faults is not None:
            hits += 1  # pragma: no cover - the branch never fires
    gate_ns = (time.perf_counter() - t0) / reps * 1e9

    net = make_circuit("dalu", scale=0.2)
    t0 = time.perf_counter()
    lshaped_kernel_extract(net, nprocs=4)
    t_off = time.perf_counter() - t0

    # An event at an unreachable message index attaches the injector
    # without ever firing; its counters say how often the gates ran.
    idle = FaultInjector(FaultPlan.parse("drop:1000000000"))
    lshaped_kernel_extract(net, nprocs=4, faults=idle)
    sites = 3 * (idle.op_index + idle.msg_index + idle.backend_index)
    overhead = (sites * gate_ns) / (t_off * 1e9) if t_off else 0.0
    return {
        "workload": "dalu@0.2/lshaped-4",
        "gate_ns_per_call": gate_ns,
        "gate_sites": sites,
        "t_faultfree_s": t_off,
        "estimated_overhead": overhead,
        "max_overhead": MAX_FAULT_OVERHEAD,
        "ok": overhead <= MAX_FAULT_OVERHEAD,
    }


def measure_journal_overhead() -> Dict:
    """Bound what the job journal costs a request, empirically.

    Two prices are measured.  The *disabled* gate — ``self.journal is
    not None`` on the gateway request path (accepted, dispatched, done,
    plus the replay probe: four sites per request, priced pessimistically
    at eight) — is what ``--no-journal`` deployments pay, and is the
    number gated against :data:`MAX_JOURNAL_OVERHEAD`.  The *enabled*
    per-append cost (JSON encode + ``O_APPEND`` write, fsync amortized
    over the batch) is measured against a real :class:`JobJournal` in a
    temp directory and reported for context: two appends ride every
    journaled request.  Both are priced over the wall time of a
    representative small request's computation.
    """
    import shutil
    import tempfile

    from repro.parallel.lshaped import lshaped_kernel_extract
    from repro.serve.durability import JobJournal

    class _Gated:
        journal = None

    gated = _Gated()
    hits = 0
    reps = 200_000
    t0 = time.perf_counter()
    for _ in range(reps):
        if gated.journal is not None:
            hits += 1  # pragma: no cover - the branch never fires
    gate_ns = (time.perf_counter() - t0) / reps * 1e9

    tmp = tempfile.mkdtemp(prefix="repro-journal-overhead-")
    try:
        journal = JobJournal(tmp)
        appends = 2_000
        t0 = time.perf_counter()
        for i in range(appends):
            journal.append("accepted", f"j{i:06d}", seq=i,
                           key="k" * 64, tenant="perfcheck",
                           body={"circuit": "dalu", "scale": 0.2})
        journal.flush()
        append_ns = (time.perf_counter() - t0) / appends * 1e9
        journal.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    net = make_circuit("dalu", scale=0.2)
    t0 = time.perf_counter()
    lshaped_kernel_extract(net, nprocs=4)
    t_request = time.perf_counter() - t0

    sites = 8  # 4 real gate sites per request, priced double
    overhead = (sites * gate_ns) / (t_request * 1e9) if t_request else 0.0
    enabled = (2 * append_ns) / (t_request * 1e9) if t_request else 0.0
    return {
        "workload": "dalu@0.2/lshaped-4",
        "gate_ns_per_call": gate_ns,
        "gate_sites": sites,
        "append_ns_per_call": append_ns,
        "t_request_s": t_request,
        "estimated_overhead": overhead,
        "enabled_overhead": enabled,
        "max_overhead": MAX_JOURNAL_OVERHEAD,
        "ok": overhead <= MAX_JOURNAL_OVERHEAD,
    }


def measure_flight_overhead(wl: Optional[Workload] = None) -> Dict:
    """Bound what the always-on flight recorder costs, empirically.

    The flight recorder is *enabled* in production (that is its point:
    the ring must already hold history when something crashes), so this
    prices the live ``record()`` append — dict build, two clock reads,
    deque push — over many reps.  One workload is then run traced to
    count how many span/counter events it emits; the estimated overhead
    assumes every one of those events were also flight-recorded, priced
    at the measured per-call cost, over the workload's plain wall time.
    Pessimistic on purpose: the serving tier records a handful of flight
    events per request, nowhere near one per engine span.
    """
    from repro import obs
    from repro.obs.flight import FlightRecorder

    wl = wl or QUICK_SUITE[-1]
    recorder = FlightRecorder(proc="perfcheck")
    reps = 200_000
    t0 = time.perf_counter()
    for i in range(reps):
        recorder.record("probe", "overhead-probe", i=i)
    record_ns = (time.perf_counter() - t0) / reps * 1e9

    net = _build_network(wl)
    matrix = build_kc_matrix(net)
    with obs.use_tracer(None):
        t_plain, _, _ = _time_search(wl, matrix)

    tracer = obs.Tracer(name="flight-overhead")
    with obs.use_tracer(tracer), obs.span(wl.name, cat="perfcheck"):
        matrix._touch()
        _run_searcher(wl, matrix)
    spans = tracer.finished()
    events = len(spans) + sum(len(sp.counters) for sp in spans)
    overhead = (events * record_ns) / (t_plain * 1e9) if t_plain else 0.0
    return {
        "workload": wl.name,
        "record_ns_per_call": record_ns,
        "flight_events": events,
        "t_plain_s": t_plain,
        "estimated_overhead": overhead,
        "max_overhead": MAX_FLIGHT_OVERHEAD,
        "ok": overhead <= MAX_FLIGHT_OVERHEAD,
    }


def geomean(values: List[float]) -> float:
    vals = [v for v in values if v and v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def run_perf_check(quick: bool = False) -> Dict:
    """Run the suite; return the BENCH_rectsearch.json payload."""
    from repro import obs

    suite = QUICK_SUITE if quick else FULL_SUITE
    rows = [run_workload(wl) for wl in suite]
    report = {
        "schema": SCHEMA,
        "suite": "quick" if quick else "full",
        "python": platform.python_version(),
        "tracing_enabled": obs.enabled(),
        "workloads": rows,
        "geomean_speedup_v2": geomean(
            [r["speedup_v2"] for r in rows if r.get("speedup_v2")]
        ),
        "all_v2_match": all(r.get("v2_results_ok", True) for r in rows),
        "trace_overhead": measure_trace_overhead(),
        "fault_overhead": measure_fault_overhead(),
        "flight_overhead": measure_flight_overhead(),
        "journal_overhead": measure_journal_overhead(),
    }
    return report


def render_report(report: Dict) -> str:
    """Human-readable table of a perf-check report."""
    lines = [
        "rectangle-search perf check "
        f"({report['suite']} suite, python {report['python']})",
        f"{'exhaustive':<28} {'RxC':>11} {'entries':>8} "
        f"{'t_v1':>9} {'t_v2':>9} {'v2 spd':>7} {'node red':>8} {'ok':>5}",
    ]
    for r in report["workloads"]:
        if r["searcher"] != "exhaustive":
            continue
        red = r.get("node_reduction")
        lines.append(
            f"{r['name']:<28} {r['rows']:>5}x{r['cols']:<5} {r['entries']:>8} "
            f"{r['t_v1_s']:>8.4f}s {r['t_v2_s']:>8.4f}s "
            f"{r['speedup_v2']:>6.2f}x {(f'{red:.2f}x' if red else '-'):>8} "
            f"{str(r['v2_results_ok']):>5}"
        )
    lines.append(
        f"{'ping-pong':<28} {'RxC':>11} {'entries':>8} "
        f"{'t':>9} {'rounds':>9} {'rounds/s':>10}"
    )
    for r in report["workloads"]:
        if r["searcher"] == "exhaustive":
            continue
        lines.append(
            f"{r['name']:<28} {r['rows']:>5}x{r['cols']:<5} {r['entries']:>8} "
            f"{r['t_s']:>8.4f}s {r['pingpong_rounds']:>9.0f} "
            f"{r['rounds_per_sec']:>10.0f}"
        )
    lines.append(
        f"geomean v2 speedup (exhaustive rows, vs v1): "
        f"{report['geomean_speedup_v2']:.2f}x "
        f"(results {'OK' if report['all_v2_match'] else 'MISMATCH'})"
    )
    oh = report.get("trace_overhead")
    if oh:
        lines.append(
            f"disabled-tracing overhead: {100 * oh['estimated_overhead']:.3f}% "
            f"of {oh['workload']} ({oh['trace_events']} events x "
            f"{oh['span_ns_per_call']:.0f} ns; limit "
            f"{100 * oh['max_overhead']:.0f}%) "
            f"{'OK' if oh['ok'] else 'FAIL'}"
        )
    fo = report.get("fault_overhead")
    if fo:
        lines.append(
            f"disabled-faults overhead: {100 * fo['estimated_overhead']:.3f}% "
            f"of {fo['workload']} ({fo['gate_sites']} gates x "
            f"{fo['gate_ns_per_call']:.0f} ns; limit "
            f"{100 * fo['max_overhead']:.0f}%) "
            f"{'OK' if fo['ok'] else 'FAIL'}"
        )
    fl = report.get("flight_overhead")
    if fl:
        lines.append(
            f"flight-recorder overhead: {100 * fl['estimated_overhead']:.3f}% "
            f"of {fl['workload']} ({fl['flight_events']} events x "
            f"{fl['record_ns_per_call']:.0f} ns; limit "
            f"{100 * fl['max_overhead']:.0f}%) "
            f"{'OK' if fl['ok'] else 'FAIL'}"
        )
    jo = report.get("journal_overhead")
    if jo:
        lines.append(
            f"disabled-journal overhead: "
            f"{100 * jo['estimated_overhead']:.3f}% of {jo['workload']} "
            f"({jo['gate_sites']} gates x {jo['gate_ns_per_call']:.0f} ns; "
            f"enabled append {jo['append_ns_per_call'] / 1000:.1f} us -> "
            f"{100 * jo['enabled_overhead']:.3f}%; limit "
            f"{100 * jo['max_overhead']:.0f}%) "
            f"{'OK' if jo['ok'] else 'FAIL'}"
        )
    if report.get("tracing_enabled"):
        lines.append("tracing: enabled — workload rows carry phase breakdowns")
    return "\n".join(lines)


def write_report(report: Dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
