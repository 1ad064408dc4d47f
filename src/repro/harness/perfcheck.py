"""Rectangle-search timing: the repo's perf trajectory.

This module is the shared engine behind ``scripts/perf_check.py`` (the
CLI / CI perf-smoke runner) and ``benchmarks/bench_bitview_search.py``
(the pytest-benchmark wrapper).  It runs a fixed workload suite — the
MCNC stand-in circuits plus the paper's worked examples — and writes
the JSON of ``benchmarks/results/BENCH_rectsearch.json``:

every row reports the best-of-repeats wall time of one search, its
work units — ``search_node`` visits for the exhaustive search of
:func:`~repro.rectangles.search.best_rectangle_exhaustive`,
``pingpong_round`` ascents for ping-pong — and the units per second.
The exhaustive search's answers are held to the unpruned walk by the
test suite (``tests/rectangles/test_search_v2.py``), not here.

One more row times the kc-build layer alone (:func:`run_kc_build`); its
``--check`` gate bounds the patch time against rebuilding every matrix
version from scratch (:data:`MAX_KC_BUILD_RATIO`).  A reported row
beside it times the kernel-gen layer alone (:func:`run_kernel_gen`):
``kernels()`` over every distinct expression of those matrix versions,
in ``kernel_cube_visit`` units.

The harness also polices its always-present instrumentation: every run
prices the disabled tracing, fault-injection and journal gates and the
live flight recorder, and bounds the estimated share of a workload's
wall time each costs (:data:`OVERHEAD_GATES`, 2% each, gated under
``--check``).  With tracing enabled (``REPRO_TRACE=1``) each workload
row additionally carries its phase breakdown and hot-loop counters, so
the persisted JSON pairs every timing with where the time went.
"""

from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.algebra.kernels import Kernel, kernels
from repro.algebra.sop import Sop
from repro.circuits.examples import paper_example_network
from repro.circuits.mcnc import make_circuit
from repro.machine.costmodel import CostMeter
from repro.network.boolean_network import BooleanNetwork
from repro.rectangles.cover import kernel_extract
from repro.rectangles.kcmatrix import IncrementalKCMatrix, KCMatrix, build_kc_matrix
from repro.rectangles.pingpong import best_rectangle_pingpong, pingpong_candidates
from repro.rectangles.search import (
    BudgetExceeded,
    SearchBudget,
    best_rectangle_exhaustive,
)

#: JSON schema version for BENCH_rectsearch.json.
SCHEMA = "rectsearch/8"

#: Ceiling on the kc-build row's patch time over a from-scratch rebuild
#: of every matrix version it patches: patching must stay well under
#: the per-iteration rebuild it replaces.
MAX_KC_BUILD_RATIO = 0.5

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
    searcher: str  # "exhaustive" | "pingpong" | "pingpong-all" | "kc-build" | "kernel-gen"
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
             budget=100, repeats=2),
    Workload("dalu@0.2/pingpong", "dalu", 0.2, "pingpong", repeats=2),
    Workload("des@0.2/pingpong", "des", 0.2, "pingpong", repeats=2),
]


#: The kc-build row, in both suites: the KC store through one sequential
#: ping-pong ``kernel_extract`` of dalu@0.2 (30 matrix versions).
KC_BUILD = Workload("dalu@0.2/kc-build", "dalu", 0.2, "kc-build", repeats=5)

#: The kernel-gen row, in both suites: ``kernels()`` over the distinct
#: node expressions of the kc-build row's matrix versions.
KERNEL_GEN = Workload("dalu@0.2/kernel-gen", "dalu", 0.2, "kernel-gen", repeats=5)


def _build_network(wl: Workload) -> BooleanNetwork:
    if wl.circuit == "eq1":
        return paper_example_network()
    return make_circuit(wl.circuit, scale=wl.scale)


def _run_searcher(
    wl: Workload, matrix: KCMatrix, meter: Optional[CostMeter] = None,
) -> None:
    """One full search; an exhaustive search may end at its node budget."""
    if wl.searcher == "exhaustive":
        budget = SearchBudget(wl.budget) if wl.budget is not None else None
        try:
            best_rectangle_exhaustive(matrix, budget=budget, meter=meter)
        except BudgetExceeded:
            pass
    elif wl.searcher == "pingpong":
        best_rectangle_pingpong(matrix, max_seeds=wl.max_seeds, meter=meter)
    elif wl.searcher == "pingpong-all":
        pingpong_candidates(matrix, max_seeds=wl.max_seeds, meter=meter)
    else:
        raise ValueError(f"unknown searcher {wl.searcher!r}")


def _work_unit(wl: Workload) -> str:
    """The meter counter a workload's searcher charges per unit of work."""
    return "search_node" if wl.searcher == "exhaustive" else "pingpong_round"


def _best_time(fn, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _time_search(wl: Workload, matrix: KCMatrix) -> Tuple[float, float]:
    """Best-of-repeats wall time; returns (seconds, work units).

    Every table derived from the matrix's store — the sorted compile,
    the seed potentials, the ascent and the anchor records — is dropped
    before every repeat, so each timing pays for building them and for
    a search from scratch (no replayed ascent or anchor); the store
    itself stays.
    """
    meter = CostMeter()
    _run_searcher(wl, matrix, meter=meter)
    units = meter.counts.get(_work_unit(wl), 0.0)

    def search() -> None:
        matrix._touch()  # drop the derived tables: time them + search
        _run_searcher(wl, matrix)

    return _best_time(search, wl.repeats), units


def run_workload(wl: Workload) -> Dict:
    """Time one workload's search.

    When tracing is enabled the timings above ran *traced* (that is the
    point of profiling a perf run), and the row gains a ``phases`` /
    ``counters`` pair taken from one traced default search, so the
    persisted report says both how fast and where the time went.
    """
    from repro import obs

    net = _build_network(wl)
    matrix = build_kc_matrix(net)
    t, units = _time_search(wl, matrix)
    row = {
        "name": wl.name,
        "circuit": wl.circuit,
        "scale": wl.scale,
        "searcher": wl.searcher,
        "rows": matrix.num_rows,
        "cols": matrix.num_cols,
        "entries": matrix.num_entries,
        "t_s": t,
        "unit": _work_unit(wl),
        "units": units,
        "units_per_sec": units / t if t else None,
    }
    if obs.enabled():
        tracer = obs.Tracer(name=wl.name)
        with obs.use_tracer(tracer), obs.span(wl.name, cat="perfcheck"):
            matrix._touch()
            _run_searcher(wl, matrix)
        row["phases"] = tracer.phase_breakdown()
        row["counters"] = tracer.counter_totals()
    return row


def _expression_versions(wl: Workload) -> List[Dict[str, Sop]]:
    """The node expressions of every matrix version one sequential
    ``kernel_extract`` of *wl*'s circuit searches, in order."""
    net = _build_network(wl)
    snapshots: List[Dict[str, Sop]] = []

    def searcher(matrix: KCMatrix):
        snapshots.append(dict(net.nodes))
        return best_rectangle_pingpong(matrix, max_seeds=wl.max_seeds)

    kernel_extract(net, searcher=searcher)
    return snapshots


def _distinct_expressions(snapshots: List[Dict[str, Sop]]) -> List[Sop]:
    """Each expression of *snapshots* once, in first-seen order."""
    return list(dict.fromkeys(f for snap in snapshots for f in snap.values()))


def _kc_build_versions(wl: Workload) -> List[Dict[str, List[Kernel]]]:
    """The kernel map of every matrix version one sequential
    ``kernel_extract`` of *wl*'s circuit searches, in order; a node no
    extraction touched keeps the very same kernel list."""
    snapshots = _expression_versions(wl)
    memo = {f: kernels(f) for f in _distinct_expressions(snapshots)}
    return [{n: memo[f] for n, f in snap.items()} for snap in snapshots]


def run_kc_build(wl: Workload = KC_BUILD) -> Dict:
    """Time the kc-build layer: the store made for the first matrix
    version and patched (``replace_nodes``, with exactly the nodes each
    extraction changed) to every later one, as the greedy loop does;
    and, for the gate, every version built from scratch.  Kernels are
    enumerated beforehand, so only the store is timed; the work units
    are the rows it writes."""
    from repro import obs

    versions = _kc_build_versions(wl)

    def patch() -> int:
        kc = IncrementalKCMatrix(versions[0])
        rows = kc.matrix.num_rows
        for prev, cur in zip(versions, versions[1:]):
            kc.replace_nodes({n: ks for n, ks in cur.items() if prev.get(n) is not ks})
            rows += kc.churn["kc_rows_added"]
        return rows

    first = IncrementalKCMatrix(versions[0]).matrix
    units = patch()
    t = _best_time(patch, wl.repeats)
    row = {
        "name": wl.name, "circuit": wl.circuit, "scale": wl.scale,
        "searcher": wl.searcher, "rows": first.num_rows,
        "cols": first.num_cols, "entries": first.num_entries,
        "versions": len(versions), "t_s": t,
        "t_rebuild_s": _best_time(
            lambda: [IncrementalKCMatrix(v) for v in versions], wl.repeats
        ),
        "unit": "kc_row", "units": units,
        "units_per_sec": units / t if t else None,
    }
    if obs.enabled():
        tracer = obs.Tracer(name=wl.name)
        with obs.use_tracer(tracer), obs.span(wl.name, cat="perfcheck"):
            patch()
        row["phases"] = tracer.phase_breakdown()
        row["counters"] = tracer.counter_totals()
    return row


def run_kernel_gen(wl: Workload = KERNEL_GEN) -> Dict:
    """Time the kernel-gen layer: ``kernels()`` over every distinct node
    expression of the kc-build row's matrix versions.  ``rows``,
    ``cols`` and ``entries`` give the shape of the KC matrix those
    kernels would make (kernels, distinct kernel cubes, cells); the
    work units are the ``kernel_cube_visit`` charges."""
    from repro import obs

    exprs = _distinct_expressions(_expression_versions(wl))

    def generate() -> None:
        for f in exprs:
            kernels(f)

    meter = CostMeter()
    ks = [k for f in exprs for k in kernels(f, meter=meter)]
    units = meter.counts.get("kernel_cube_visit", 0.0)
    t = _best_time(generate, wl.repeats)
    row = {
        "name": wl.name, "circuit": wl.circuit, "scale": wl.scale,
        "searcher": wl.searcher, "rows": len(ks),
        "cols": len({kc for k in ks for kc in k.expression}),
        "entries": sum(k.num_cubes for k in ks),
        "expressions": len(exprs), "t_s": t,
        "unit": "kernel_cube_visit", "units": units,
        "units_per_sec": units / t if t else None,
    }
    if obs.enabled():
        tracer = obs.Tracer(name=wl.name)
        with obs.use_tracer(tracer), obs.span(wl.name, cat="perfcheck"):
            generate()
        row["phases"] = tracer.phase_breakdown()
        row["counters"] = tracer.counter_totals()
    return row


def kc_build_gate(row: Dict) -> Dict:
    """The kc-build ``--check`` gate over :func:`run_kc_build`'s row."""
    ratio = row["t_s"] / row["t_rebuild_s"] if row["t_rebuild_s"] else 0.0
    return {"label": "kc-build patch", "workload": row["name"],
            "t_patch_s": row["t_s"], "t_rebuild_s": row["t_rebuild_s"],
            "ratio": ratio, "max_ratio": MAX_KC_BUILD_RATIO,
            "ok": ratio <= MAX_KC_BUILD_RATIO}


#: The overhead gates, one row each: report key, label, the per-call
#: price, the workload timed, how many priced calls it makes, and the
#: budget.  Every estimate is ``calls * price / workload wall time``.
OVERHEAD_GATES: Tuple[Tuple[str, str, str, str, str, float], ...] = (
    ("trace_overhead", "disabled-tracing", "span_ns", "search",
     "trace_events", MAX_TRACE_OVERHEAD),
    ("flight_overhead", "flight-recorder", "record_ns", "search",
     "trace_events", MAX_FLIGHT_OVERHEAD),
    ("fault_overhead", "disabled-faults", "gate_ns", "lshaped",
     "fault_gates", MAX_FAULT_OVERHEAD),
    ("journal_overhead", "disabled-journal", "gate_ns", "lshaped",
     "journal_gates", MAX_JOURNAL_OVERHEAD),
)

#: The most ``faults is None`` tests one machine operation runs on the
#: fault gate's 4-processor workload.  ``run_phase`` is the widest
#: primitive: one test on entry and one on exit, plus two per processor
#: (the dead-pid skip and the slowdown multiplier); ``charge_all`` runs
#: one fewer, ``barrier`` and ``charge`` two, ``broadcast`` and ``send``
#: one.
FAULT_GATES_PER_OP = 2 + 2 * 4

#: The journal's ``self.journal is not None`` sites on the gateway
#: request path (accepted, dispatched, done, replay probe), priced double.
JOURNAL_GATES = 8


def _per_call_prices() -> Dict[str, float]:
    """Nanoseconds per call of each priced site, over many reps.

    - ``span_ns``: a full disabled ``span()`` enter/exit, the heavier of
      the two disabled tracing shapes (hot loops only pay the hoisted
      ``active_tracer()`` gate);
    - ``record_ns``: a live flight-recorder ``record()`` append — the
      recorder is always on in the serving tier, so it is priced enabled;
    - ``gate_ns``: one attribute fetch plus ``is None`` test, the shape of
      the simulator's ``self.faults`` and the gateway's ``self.journal``
      gates;
    - ``append_ns``: one enabled journal append (JSON encode, ``O_APPEND``
      write, fsync amortized over the batch) in a temp directory.
    """
    import shutil
    import tempfile

    from repro import obs
    from repro.obs.flight import FlightRecorder
    from repro.obs.tracer import span
    from repro.serve.durability import JobJournal

    reps = 200_000
    prices: Dict[str, float] = {}
    with obs.use_tracer(None):
        t0 = time.perf_counter()
        for _ in range(reps):
            with span("overhead-probe"):
                pass
        prices["span_ns"] = (time.perf_counter() - t0) / reps * 1e9

    recorder = FlightRecorder(proc="perfcheck")
    t0 = time.perf_counter()
    for i in range(reps):
        recorder.record("probe", "overhead-probe", i=i)
    prices["record_ns"] = (time.perf_counter() - t0) / reps * 1e9

    class _Gated:
        faults = None

    gated = _Gated()
    hits = 0
    t0 = time.perf_counter()
    for _ in range(reps):
        if gated.faults is not None:
            hits += 1  # pragma: no cover - the branch never fires
    prices["gate_ns"] = (time.perf_counter() - t0) / reps * 1e9

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
        prices["append_ns"] = (time.perf_counter() - t0) / appends * 1e9
        journal.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return prices


def measure_overheads(wl: Optional[Workload] = None) -> Dict[str, Dict]:
    """Bound what each gate in :data:`OVERHEAD_GATES` costs, empirically.

    Each workload is timed once, then run once more to count calls:

    - ``search`` (*wl*, default the last quick-suite workload) is timed
      untraced, then run traced; every span is one enter/exit and every
      counter key one hot-loop attachment (counter *values* cost nothing
      when disabled), and trace and flight both price those events;
    - ``lshaped`` (``dalu@0.2``, 4 processors) is timed fault-free, then
      run under an idle injector (one event at an unreachable message
      index) whose counters say how often the fault gates ran, each
      index priced at :data:`FAULT_GATES_PER_OP` gate calls.  The
      journal prices its fixed :data:`JOURNAL_GATES` over the same
      request, and reports the enabled cost of its two appends per
      request for context.

    All estimates are deliberately pessimistic.
    """
    from repro import obs
    from repro.faults import FaultInjector, FaultPlan
    from repro.parallel.lshaped import lshaped_kernel_extract

    prices = _per_call_prices()

    wl = wl or QUICK_SUITE[-1]
    matrix = build_kc_matrix(_build_network(wl))
    with obs.use_tracer(None):
        t_search, _ = _time_search(wl, matrix)
    tracer = obs.Tracer(name="overhead")
    with obs.use_tracer(tracer), obs.span(wl.name, cat="perfcheck"):
        matrix._touch()
        _run_searcher(wl, matrix)
    spans = tracer.finished()

    net = make_circuit("dalu", scale=0.2)
    t0 = time.perf_counter()
    lshaped_kernel_extract(net, nprocs=4)
    t_lshaped = time.perf_counter() - t0
    idle = FaultInjector(FaultPlan.parse("drop:1000000000"))
    lshaped_kernel_extract(net, nprocs=4, faults=idle)

    workloads = {
        "search": (wl.name, t_search),
        "lshaped": ("dalu@0.2/lshaped-4", t_lshaped),
    }
    calls = {
        "trace_events": len(spans) + sum(len(sp.counters) for sp in spans),
        "fault_gates": FAULT_GATES_PER_OP * (idle.op_index + idle.msg_index),
        "journal_gates": JOURNAL_GATES,
    }
    report: Dict[str, Dict] = {}
    for key, label, price, workload, count, budget in OVERHEAD_GATES:
        name, wall = workloads[workload]
        overhead = calls[count] * prices[price] / (wall * 1e9) if wall else 0.0
        report[key] = {
            "label": label,
            "workload": name,
            "ns_per_call": prices[price],
            "calls": calls[count],
            "t_workload_s": wall,
            "estimated_overhead": overhead,
            "max_overhead": budget,
            "ok": overhead <= budget,
        }
    journal = report["journal_overhead"]
    journal["append_ns_per_call"] = prices["append_ns"]
    journal["enabled_overhead"] = (
        2 * prices["append_ns"] / (t_lshaped * 1e9) if t_lshaped else 0.0
    )
    return report


def run_perf_check(quick: bool = False) -> Dict:
    """Run the suite; return the BENCH_rectsearch.json payload."""
    from repro import obs

    suite = QUICK_SUITE if quick else FULL_SUITE
    rows = [run_workload(wl) for wl in suite]
    rows.append(run_kernel_gen())
    kc_row = run_kc_build()
    rows.append(kc_row)
    report = {
        "schema": SCHEMA,
        "suite": "quick" if quick else "full",
        "python": platform.python_version(),
        "tracing_enabled": obs.enabled(),
        "workloads": rows,
        "kc_build": kc_build_gate(kc_row),
    }
    report.update(measure_overheads())
    return report


def render_report(report: Dict) -> str:
    """Human-readable table of a perf-check report."""
    lines = [
        "rectangle-search perf check "
        f"({report['suite']} suite, python {report['python']})",
        f"{'workload':<28} {'RxC':>11} {'entries':>8} "
        f"{'t':>9} {'units':>9} {'units/s':>10}  unit",
    ]
    for r in report["workloads"]:
        lines.append(
            f"{r['name']:<28} {r['rows']:>5}x{r['cols']:<5} {r['entries']:>8} "
            f"{r['t_s']:>8.4f}s {r['units']:>9.0f} "
            f"{r['units_per_sec'] or 0:>10.0f}  {r['unit']}"
        )
    for key, *_ in OVERHEAD_GATES:
        oh = report[key]
        enabled = (
            f"enabled append {oh['append_ns_per_call'] / 1000:.1f} us -> "
            f"{100 * oh['enabled_overhead']:.3f}%; "
            if "enabled_overhead" in oh else ""
        )
        lines.append(
            f"{oh['label']} overhead: {100 * oh['estimated_overhead']:.3f}% "
            f"of {oh['workload']} ({oh['calls']} calls x "
            f"{oh['ns_per_call']:.0f} ns; {enabled}limit "
            f"{100 * oh['max_overhead']:.0f}%) "
            f"{'OK' if oh['ok'] else 'FAIL'}"
        )
    gate = report["kc_build"]
    lines.append(
        f"{gate['label']}: {1000 * gate['t_patch_s']:.2f} ms vs "
        f"{1000 * gate['t_rebuild_s']:.2f} ms rebuilding every version "
        f"(ratio {gate['ratio']:.3f}, limit {gate['max_ratio']:.2f}) "
        f"{'OK' if gate['ok'] else 'FAIL'}"
    )
    if report.get("tracing_enabled"):
        lines.append("tracing: enabled — workload rows carry phase breakdowns")
    return "\n".join(lines)


def write_report(report: Dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
