"""Table-1-style profiler: phase/percent breakdowns from a span trace.

The paper's premise is one profile: algebraic factorization is ~61% of
synthesis runtime (Table 1).  This module produces the same kind of
breakdown for any factorization run of this repo — run a circuit through
a path under a fresh tracer, then render where the virtual time went
(compute phases vs. barrier stalls vs. transfers) per phase and per
processor, using the same plain-text tables as the benchmark harness.

The profile is *checked*: per-processor virtual totals from the trace
must agree with the simulated machine's final clocks
(``ParallelRunResult.proc_clocks`` / ``elapsed()``); a mismatch raises,
because a profiler that disagrees with the quantity it attributes is
worse than none.  ``repro profile CIRCUIT`` is the CLI front-end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.export import chrome_trace_json, to_jsonl
from repro.obs.tracer import Tracer, use_tracer

PROFILE_ALGORITHMS = ("sequential", "replicated", "independent", "lshaped")

#: Tolerance for the trace-vs-clock agreement check (float accumulation
#: over thousands of span boundaries).
CLOCK_TOLERANCE = 1e-6


class ProfileMismatch(AssertionError):
    """Trace totals disagree with the simulator clocks."""


@dataclass
class ProfileResult:
    """One profiled run: the trace plus the run's own accounting."""

    circuit: str
    algorithm: str
    nprocs: int
    tracer: Tracer
    parallel_time: float            # virtual elapsed (max clock)
    proc_clocks: List[float]        # final clock per pid ([] for sequential)
    host_seconds: float
    initial_lc: int = 0
    final_lc: int = 0
    extractions: int = 0

    # ------------------------------------------------------------------
    def phase_rows(self) -> List[Dict[str, Any]]:
        """Phase breakdown rows, largest virtual share first."""
        breakdown = self.tracer.phase_breakdown()
        total_v = sum(row["virtual"] for row in breakdown.values()) or 1.0
        rows = []
        for name, row in breakdown.items():
            rows.append({
                "phase": name,
                "spans": int(row["count"]),
                "virtual": row["virtual"],
                "share": 100.0 * row["virtual"] / total_v,
                "host_s": row["host_s"],
            })
        rows.sort(key=lambda r: (-r["virtual"], r["phase"]))
        return rows

    def processor_rows(self) -> List[Dict[str, Any]]:
        """Per-processor timeline: compute vs. stall vs. final clock."""
        per_track: Dict[Any, Dict[str, float]] = {}
        for sp in self.tracer.finished():
            row = per_track.setdefault(
                sp.track, {"busy": 0.0, "stall": 0.0, "spans": 0.0}
            )
            row["spans"] += 1
            stall = sp.counters.get("stall", 0.0)
            dur = sp.virtual_duration
            row["stall"] += stall
            row["busy"] += max(0.0, dur - stall)
        totals = self.tracer.track_virtual_totals()
        rows = []
        for track in sorted(per_track, key=str):
            row = per_track[track]
            clock = totals.get(track, 0.0)
            rows.append({
                "track": track,
                "spans": int(row["spans"]),
                "busy": row["busy"],
                "stall": row["stall"],
                "clock": clock,
                "utilization": (100.0 * row["busy"] / clock) if clock else None,
            })
        return rows

    def check_clocks(self) -> None:
        """Raise :class:`ProfileMismatch` unless trace totals == clocks."""
        totals = self.tracer.track_virtual_totals()
        for pid, clock in enumerate(self.proc_clocks):
            traced = totals.get(pid, 0.0)
            if abs(traced - clock) > CLOCK_TOLERANCE:
                raise self._mismatch(
                    f"pid {pid}: trace total {traced!r} != machine clock "
                    f"{clock!r} ({self.algorithm} on {self.circuit})"
                )
        if self.proc_clocks:
            top = max(self.proc_clocks)
            if abs(top - self.parallel_time) > CLOCK_TOLERANCE:
                raise self._mismatch(
                    f"max clock {top!r} != elapsed {self.parallel_time!r}"
                )

    def _mismatch(self, message: str) -> "ProfileMismatch":
        """Build the error after leaving a flight-recorder breadcrumb —
        a clock divergence is exactly the state worth a post-mortem."""
        from repro.obs.flight import auto_dump, flight_recorder

        flight_recorder().record(
            "mismatch", "profile-mismatch",
            circuit=self.circuit, algorithm=self.algorithm, detail=message,
        )
        auto_dump("profile-mismatch")
        return ProfileMismatch(message)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The Table-1-style report (phase table + processor timeline)."""
        from repro.harness.tables import Table

        head = (
            f"{self.circuit}: {self.algorithm} x{self.nprocs} — "
            f"LC {self.initial_lc} -> {self.final_lc}, "
            f"{self.extractions} extraction(s), "
            f"virtual time {self.parallel_time:.1f}, "
            f"host {self.host_seconds * 1e3:.1f} ms"
        )
        phases = Table(
            title=f"Phase breakdown — {head}",
            columns=["phase", "spans", "virtual", "share %", "host ms"],
        )
        for row in self.phase_rows():
            phases.add_row(
                row["phase"], row["spans"], row["virtual"],
                row["share"], row["host_s"] * 1e3,
            )
        phases.add_note(
            "share % is of summed per-span virtual time (waits included); "
            "Table 1 of the paper is the same accounting for whole synthesis."
        )
        procs = Table(
            title="Per-processor timeline",
            columns=["track", "spans", "busy", "stall", "final clock", "util %"],
        )
        for row in self.processor_rows():
            procs.add_row(
                str(row["track"]), row["spans"], row["busy"],
                row["stall"], row["clock"], row["utilization"],
            )
        procs.add_note(
            "busy = span virtual time minus tagged stalls; final clock "
            "matches SimulatedMachine PhaseReport/elapsed() exactly."
        )
        counters = Table(
            title="Hot-loop counters",
            columns=["counter", "total"],
        )
        for name, total in self.counter_rows():
            counters.add_row(name, int(total))
        counters.add_note(
            "search pruning (rect_search_*) and canonical-memo "
            "(rect_memo_*) counters are per-search span attachments; "
            "zero rows mean the feature never fired on this run."
        )
        return (
            phases.render() + "\n\n" + procs.render()
            + "\n\n" + counters.render()
        )

    def counter_rows(self) -> List[tuple]:
        """Counter totals, with the v2 search/memo counters always
        present (zero-filled) so profiles are comparable across runs."""
        from repro.rectangles.memo import COUNTER_NAMES

        totals = dict.fromkeys(COUNTER_NAMES, 0.0)
        totals.update(self.tracer.counter_totals())
        return sorted(totals.items())

    def to_dict(self) -> Dict[str, Any]:
        """JSON payload (what the benchmark integration persists)."""
        return {
            "schema": "repro.obs.profile/1",
            "circuit": self.circuit,
            "algorithm": self.algorithm,
            "nprocs": self.nprocs,
            "parallel_time": self.parallel_time,
            "proc_clocks": list(self.proc_clocks),
            "host_seconds": self.host_seconds,
            "initial_lc": self.initial_lc,
            "final_lc": self.final_lc,
            "extractions": self.extractions,
            "phases": self.phase_rows(),
            "processors": self.processor_rows(),
            "counters": self.tracer.counter_totals(),
        }

    def chrome_trace(self, clock: str = "virtual") -> str:
        return chrome_trace_json(self.tracer, clock=clock)

    def jsonl(self) -> str:
        return to_jsonl(self.tracer)


def profile_run(
    network,
    algorithm: str = "lshaped",
    nprocs: int = 4,
    check: bool = True,
    **kwargs: Any,
) -> ProfileResult:
    """Run *algorithm* over *network* under a fresh tracer; profile it.

    ``kwargs`` pass through to the path function (seed, max_seeds, …).
    With ``check`` (default) the profile is validated against the
    simulator clocks before being returned.
    """
    if algorithm not in PROFILE_ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}: expected one of "
            + ", ".join(PROFILE_ALGORITHMS)
        )
    tracer = Tracer(name=f"{network.name}:{algorithm}")
    t0 = time.perf_counter()
    with use_tracer(tracer):
        if algorithm == "sequential":
            from repro.machine.costmodel import CostMeter, DEFAULT_COST_MODEL
            from repro.rectangles.cover import kernel_extract

            work = network.copy()
            meter = CostMeter()
            res = kernel_extract(work, meter=meter, **kwargs)
            host = time.perf_counter() - t0
            return ProfileResult(
                circuit=network.name,
                algorithm=algorithm,
                nprocs=1,
                tracer=tracer,
                parallel_time=DEFAULT_COST_MODEL.compute_time(meter.counts),
                proc_clocks=[],
                host_seconds=host,
                initial_lc=res.initial_lc,
                final_lc=res.final_lc,
                extractions=res.iterations,
            )
        if algorithm == "replicated":
            from repro.parallel.replicated import replicated_kernel_extract
            run = replicated_kernel_extract(network, nprocs, **kwargs)
        elif algorithm == "independent":
            from repro.parallel.independent import independent_kernel_extract
            run = independent_kernel_extract(network, nprocs, **kwargs)
        else:
            from repro.parallel.lshaped import lshaped_kernel_extract
            run = lshaped_kernel_extract(network, nprocs, **kwargs)
    host = time.perf_counter() - t0
    result = ProfileResult(
        circuit=network.name,
        algorithm=algorithm,
        nprocs=nprocs,
        tracer=tracer,
        parallel_time=run.parallel_time,
        proc_clocks=list(run.proc_clocks or []),
        host_seconds=host,
        initial_lc=run.initial_lc,
        final_lc=run.final_lc,
        extractions=run.extractions,
    )
    if check:
        result.check_clocks()
    return result
