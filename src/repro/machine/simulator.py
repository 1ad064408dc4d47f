"""Deterministic simulated shared-memory multiprocessor.

The machine executes parallel algorithms as a sequence of *phases*.
Within a phase every virtual processor runs a Python callable (serially,
in pid order — determinism) while charging its own meter; the phase
advances each processor's clock by the weighted cost of the work it
charged.  Synchronization primitives then combine clocks:

- :meth:`SimulatedMachine.barrier` — all clocks jump to the maximum plus
  the model's barrier cost (the per-extraction-step synchronization that
  limits the replicated algorithm's speedup);
- :meth:`SimulatedMachine.broadcast` — the source pays a transfer per
  peer, every receiver is delayed until the payload arrives;
- :meth:`SimulatedMachine.send` — point-to-point transfer (the B_ij
  sub-matrix exchange of the L-shaped algorithm).

``elapsed()`` (max clock) over ``sequential_time`` gives the measured
speedup the benchmark tables report.

Every clock advance is also visible to :mod:`repro.obs`: when a tracer
is active (``REPRO_TRACE=1`` or an explicit ``tracer=``), each phase,
barrier stall, broadcast and send closes a span on the owning pid's
track whose virtual interval is exactly the clock movement — so a
trace's per-track maxima reproduce :meth:`elapsed` and the final
:class:`PhaseReport` clocks bit-for-bit.  With no tracer the
instrumentation reduces to ``is None`` tests (``run_phase`` enters the
shared :data:`~repro.obs.tracer.NULL_SPAN`).

Fault injection (:mod:`repro.faults`) follows the same discipline: with
a :class:`~repro.faults.injector.FaultInjector` attached via ``faults=``
the primitives honor scheduled crashes (dead pids stop running and their
clocks freeze), slowdowns (compute multipliers), and message
drop/corruption/duplication (bounded retransmit with per-attempt
timeouts; :meth:`send` returns ``False`` on permanent loss so callers
can journal the payload).  Crashes are *detected* at the next barrier:
every survivor pays the plan's detection timeout once and the newly
detected pids are surfaced through :meth:`take_detected` for the
algorithm's recovery pass.  Each primitive has one body: the fault
branches are inline ``is not None`` tests around the clock-and-span
tail every run shares, so with ``faults=None`` the injector is never
consulted and the clocks, reports and spans are those of a machine
without fault support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.machine.costmodel import CostMeter, CostModel, DEFAULT_COST_MODEL
from repro.obs.tracer import NULL_SPAN, Tracer, active_tracer

T = TypeVar("T")


class VirtualProcessor:
    """One simulated CPU: a clock plus the meter its work charges."""

    __slots__ = ("pid", "clock", "meter")

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.clock = 0.0
        self.meter = CostMeter()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualProcessor(pid={self.pid}, clock={self.clock:.1f})"


@dataclass
class PhaseReport:
    """Per-phase accounting, kept for benchmark introspection."""

    name: str
    clocks_after: List[float]

    @property
    def span(self) -> float:
        return max(self.clocks_after) if self.clocks_after else 0.0


class SimulatedMachine:
    """A fixed-size pool of virtual processors with a shared cost model."""

    def __init__(
        self,
        nprocs: int,
        model: CostModel = DEFAULT_COST_MODEL,
        tracer: Optional[Tracer] = None,
        faults=None,
    ) -> None:
        if nprocs < 1:
            raise ValueError("need at least one processor")
        self.model = model
        self.procs = [VirtualProcessor(p) for p in range(nprocs)]
        self.phases: List[PhaseReport] = []
        self.tracer = tracer
        #: a repro.faults.FaultInjector, or None for the fault-free path.
        self.faults = faults
        self._in_phase = False
        self._newly_detected: List[int] = []

    @property
    def nprocs(self) -> int:
        return len(self.procs)

    def _trace(self) -> Optional[Tracer]:
        """Explicit tracer wins; otherwise the process-global one."""
        return self.tracer if self.tracer is not None else active_tracer()

    # ------------------------------------------------------------------
    # Fault-awareness helpers (trivial identities when faults is None)
    # ------------------------------------------------------------------
    def alive_pids(self) -> List[int]:
        """Processors still running (all of them on the fault-free path)."""
        fa = self.faults
        if fa is None:
            return list(range(self.nprocs))
        return [p for p in range(self.nprocs) if p not in fa.dead]

    def lowest_alive(self) -> int:
        """The master role: the lowest-numbered surviving processor."""
        return self.alive_pids()[0]

    def take_detected(self) -> List[int]:
        """Dead pids detected since the last call (recovery handoff)."""
        out, self._newly_detected = self._newly_detected, []
        return sorted(set(out))

    # ------------------------------------------------------------------
    # Work execution
    # ------------------------------------------------------------------
    def _record(self, name: str) -> None:
        """Append the :class:`PhaseReport` every primitive ends with."""
        self.phases.append(PhaseReport(name, [p.clock for p in self.procs]))

    @staticmethod
    def _span(tr: Tracer, name: str, cat: str, track: int, v0: float,
              v1: float, **counters: float) -> None:
        """Close one span whose virtual interval is [*v0*, *v1*]."""
        with tr.span(name, cat=cat, track=track, virtual_start=v0) as sp:
            sp.set_virtual_end(v1)
            sp.add_counters(**counters)

    def run_phase(
        self,
        work: Callable[[VirtualProcessor], T],
        name: str = "phase",
        procs: Optional[Sequence[int]] = None,
    ) -> List[T]:
        """Run *work(proc)* on each (selected) processor; advance clocks.

        The callable must charge ``proc.meter`` for everything it does
        (the instrumented library functions accept a ``meter=`` argument
        for exactly this).  Clock advance = weighted cost of the charges
        made during this phase.
        """
        results: List[T] = []
        pids = list(procs) if procs is not None else list(range(self.nprocs))
        tr = self._trace()
        fa = self.faults
        if fa is not None:
            fa.tick(self)
            self._in_phase = True
        try:
            for pid in pids:
                if fa is not None and pid in fa.dead:
                    results.append(None)
                    continue
                proc = self.procs[pid]
                before = proc.meter.snapshot()
                with (NULL_SPAN if tr is None else
                      tr.span(name, cat="phase", track=pid,
                              virtual_start=proc.clock)) as sp:
                    results.append(work(proc))
                    after = proc.meter.counts
                    delta = {k: after.get(k, 0.0) - before.get(k, 0.0)
                             for k in after}
                    dt = self.model.compute_time(delta)
                    if fa is not None:
                        dt *= fa.slow_factor(pid)
                    proc.clock += dt
                    if tr is not None:
                        sp.set_virtual_end(proc.clock)
                        for kind, amount in delta.items():
                            if amount:
                                sp.add_counter(kind, amount)
        finally:
            if fa is not None:
                self._in_phase = False
        self._record(name)
        return results

    def charge(self, pid: int, kind: str, amount: float = 1.0) -> None:
        """Direct charge outside a phase (rarely needed)."""
        fa = self.faults
        if fa is not None:
            if not self._in_phase:
                fa.tick(self)
            if pid in fa.dead:
                return
        proc = self.procs[pid]
        tr = self._trace()
        v0 = proc.clock
        proc.meter.charge(kind, amount)
        dt = self.model.weight(kind) * amount
        if fa is not None:
            dt *= fa.slow_factor(pid)
        proc.clock += dt
        if tr is not None:
            self._span(tr, "charge", "compute", pid, v0, proc.clock,
                       **{kind: amount})

    def charge_all(self, probe: CostMeter, name: str = "charge-all") -> None:
        """Merge *probe* into every processor's meter; advance all clocks.

        Models work every processor performs redundantly (the replicated
        algorithm's whole-matrix build).  Advances each clock by the
        probe's weighted cost, records a :class:`PhaseReport`, and — when
        tracing — closes one span per pid so trace totals keep matching
        the clocks.
        """
        cost = self.model.compute_time(probe.counts)
        tr = self._trace()
        fa = self.faults
        if fa is not None and not self._in_phase:
            fa.tick(self)
        nonzero = {k: v for k, v in probe.counts.items() if v}
        for proc in self.procs:
            if fa is not None and proc.pid in fa.dead:
                continue
            v0 = proc.clock
            proc.meter.merge(probe)
            dt = cost
            if fa is not None:
                dt *= fa.slow_factor(proc.pid)
            proc.clock += dt
            if tr is not None:
                self._span(tr, name, "phase", proc.pid, v0, proc.clock,
                           **nonzero)
        self._record(name)

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------
    def barrier(self, name: str = "barrier") -> None:
        """All processors wait for the slowest, then pay the sync cost.

        With faults attached: dead processors are excluded from the
        rendezvous, and if any crash is still undetected every survivor
        additionally pays the plan's detection timeout (the failure
        detector firing); the newly detected pids become available via
        :meth:`take_detected`.
        """
        fa = self.faults
        procs, extra, detect = self.procs, 0.0, {}
        if fa is not None:
            fa.tick(self)
            procs = [p for p in procs if p.pid not in fa.dead]
            undetected = fa.undetected_dead()
            extra = fa.plan.detection_timeout if undetected else 0.0
            detect = {"crash_detect": extra}
        top = max(p.clock for p in procs)
        cost = self.model.barrier_cost
        tr = self._trace()
        for p in procs:
            v0 = p.clock
            p.clock = top + cost + extra
            if tr is not None:
                self._span(tr, name, "sync", p.pid, v0, p.clock,
                           stall=top - v0, barrier_cost=cost, **detect)
        if fa is not None:
            if undetected:
                newly = fa.mark_detected()
                self._newly_detected.extend(newly)
                for pid in newly:
                    fa.note_recovery("detect", self, pid=pid, consume=False,
                                     detail=f"detected at {name}")
            fa.absorb_expired_slowdowns(self)
        self._record(name)

    def broadcast(self, src: int, words: float, name: str = "broadcast") -> None:
        """One-to-all transfer of a payload of *words* units.

        With faults attached a drop or corruption costs the sender one
        full attempt plus the ack timeout per failed round (broadcasts
        always complete), a duplicate costs every receiver one more
        transfer, and dead processors neither send nor receive.
        """
        fa = self.faults
        cost = self.model.transfer_time(words)
        sender = self.procs[src]
        tr = self._trace()
        procs = self.procs
        dup = False
        if fa is not None:
            if not self._in_phase:
                fa.tick(self)
            if src in fa.dead:
                return
            ev = fa.message_event()
            if ev is not None and ev.kind in ("drop", "corrupt"):
                v0 = sender.clock
                sender.clock += ev.attempts * (cost + fa.plan.retransmit_timeout)
                fa.note_fault(ev.kind, self, pid=src,
                              detail=f"bcast attempts={ev.attempts}",
                              v_start=v0, v_end=sender.clock)
                fa.note_recovery("retransmit", self, pid=src,
                                 for_kinds=(ev.kind,),
                                 detail=f"bcast delivered after {ev.attempts} retries")
            dup = ev is not None and ev.kind == "dup"
            if dup:
                fa.note_fault("dup", self, pid=src, detail="bcast duplicated")
            procs = [p for p in procs if p.pid not in fa.dead]
        fanout = len(procs) - 1
        v0 = sender.clock
        sender.clock += cost * max(1, fanout) * 0.25 + cost
        arrival = sender.clock
        if tr is not None:
            self._span(tr, name, "comm", src, v0, arrival,
                       transfer_words=words, fanout=fanout)
        for p in procs:
            if p.pid != src:
                r0 = p.clock
                p.clock = max(p.clock, arrival)
                if dup:
                    p.clock += cost
                if tr is not None:
                    self._span(tr, name, "comm", p.pid, r0, p.clock,
                               stall=p.clock - r0, transfer_words=words)
        if dup:
            fa.note_recovery("dedup", self, pid=src, for_kinds=("dup",),
                             detail="receivers discarded duplicate bcast")
        self._record(name)

    def send(self, src: int, dst: int, words: float, name: str = "send") -> bool:
        """Point-to-point transfer; receiver can't proceed before arrival.

        Returns True when the payload was delivered.  On the fault-free
        path that is always the case; with faults attached, a message to
        a dead peer or one whose injected failure count exceeds the
        retransmit bound is permanently lost (``False``) — callers that
        carry real data alongside the cost charge must journal it for
        replay.
        """
        if src == dst:
            return True
        fa = self.faults
        cost = self.model.transfer_time(words)
        sender = self.procs[src]
        tr = self._trace()
        dup = False
        if fa is not None:
            if not self._in_phase:
                fa.tick(self)
            if src in fa.dead:
                return False
            if dst in fa.dead:
                # The attempt is paid for; the payload lands nowhere.
                # The crash itself is the fault on record — the caller
                # journals the payload and the post-barrier recovery
                # replays it.
                s0 = sender.clock
                sender.clock += cost
                if tr is not None:
                    self._span(tr, name, "comm", src, s0, sender.clock,
                               transfer_words=words, lost=1)
                self._record(name)
                return False
            ev = fa.message_event()
            if ev is not None and ev.kind in ("drop", "corrupt"):
                v0 = sender.clock
                failed = ev.attempts
                sender.clock += failed * (cost + fa.plan.retransmit_timeout)
                fa.note_fault(ev.kind, self, pid=src,
                              detail=f"msg {fa.msg_index - 1} -> p{dst} "
                                     f"attempts={failed}",
                              v_start=v0, v_end=sender.clock)
                if failed > fa.plan.max_retransmits:
                    self._record(name)
                    return False
                fa.note_recovery("retransmit", self, pid=src,
                                 for_kinds=(ev.kind,),
                                 detail=f"delivered after {failed} retries")
            elif ev is not None and ev.kind == "dup":
                dup = True
                fa.note_fault("dup", self, pid=src,
                              detail=f"msg {fa.msg_index - 1} -> p{dst}")
        s0 = sender.clock
        sender.clock += cost
        receiver = self.procs[dst]
        r0 = receiver.clock
        receiver.clock = max(receiver.clock, sender.clock)
        if dup:
            receiver.clock += cost
            fa.note_recovery("dedup", self, pid=dst, for_kinds=("dup",),
                             detail="duplicate discarded by sequence check")
        if tr is not None:
            self._span(tr, name, "comm", src, s0, sender.clock,
                       transfer_words=words)
            self._span(tr, name, "comm", dst, r0, receiver.clock,
                       stall=receiver.clock - r0, transfer_words=words)
        self._record(name)
        return True

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        """Simulated wall-clock: the slowest processor's clock."""
        return max(p.clock for p in self.procs)

    def total_work(self) -> float:
        """Sum of all compute charged (excludes waiting)."""
        return sum(p.meter.total(self.model) for p in self.procs)

    def speedup_against(self, sequential_time: float) -> float:
        el = self.elapsed()
        return sequential_time / el if el > 0 else float("inf")


def sequential_time_of(meter: CostMeter, model: CostModel = DEFAULT_COST_MODEL) -> float:
    """Time a single processor would take for the metered work."""
    return model.compute_time(meter.counts)
