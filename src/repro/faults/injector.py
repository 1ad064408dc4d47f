"""Replaying a :class:`~repro.faults.plan.FaultPlan` against the machine.

The :class:`FaultInjector` is the mutable runtime companion of a frozen
plan: it owns the operation counters, the set of dead processors, and an
append-only record log pairing every injected fault with the recovery
action that answered it.  The :class:`~repro.machine.simulator.
SimulatedMachine` consults it from every primitive — but only when one
is attached; the fault-free path stays a single ``is None`` test.

Determinism contract: for a fixed ``(plan, seed)`` and a fixed
algorithm/input, repeated runs produce byte-identical
:meth:`serialized_log` output, recovered networks, and virtual clocks
(see ``tests/faults/test_determinism.py``).

Every record is also emitted as a zero-or-measured-width ``fault:*`` /
``recovery:*`` span on the affected processor's track when a tracer is
active, so a Chrome-trace export shows exactly where each fault landed
and how it was absorbed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.faults.plan import FaultEvent, FaultPlan


@dataclass
class FaultRecord:
    """One log line: an injected fault or a recovery action."""

    seq: int
    phase: str          # "fault" | "recovery"
    kind: str
    pid: int
    op: int             # top-level machine op index when recorded
    clock: float        # affected processor's virtual clock
    detail: str = ""
    paired_with: int = -1   # recovery -> seq of the fault it answers

    def to_dict(self) -> Dict[str, object]:
        return {
            "seq": self.seq, "phase": self.phase, "kind": self.kind,
            "pid": self.pid, "op": self.op, "clock": self.clock,
            "detail": self.detail, "paired_with": self.paired_with,
        }


def note_control_resync(machine, pid: int, what: str) -> None:
    """Pair a permanently lost *control* message with its recovery.

    The simulation meters message traffic but the payloads of control
    messages (partitions, cube counts, label maps) travel through shared
    Python state, so a permanent transport loss costs retransmission
    time only — the receiver resynchronizes from shared state.  No-op
    when no transport fault is open (e.g. the send failed because the
    peer is dead; that crash is answered elsewhere).
    """
    fa = machine.faults
    if fa is not None and fa.has_open(("drop", "corrupt")):
        fa.note_recovery(
            "resync", machine, pid=pid, for_kinds=("drop", "corrupt"),
            detail=f"{what} lost; resynced from shared state",
        )


class FaultInjector:
    """Deterministic fault scheduler + fault/recovery event log."""

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        self.plan = plan
        self.seed = seed
        self.rng = random.Random(f"repro-faults:{seed}:{plan.render()}")
        self.records: List[FaultRecord] = []
        self.dead: Set[int] = set()
        self.op_index = 0
        self.msg_index = 0
        self._detected: Set[int] = set()
        self._pending_crashes: List[FaultEvent] = [
            ev for ev in plan.events if ev.kind == "crash"]
        self._slow_events: List[FaultEvent] = [
            ev for ev in plan.events if ev.kind == "slow"]
        self._announced_slow: Set[int] = set()   # indices into _slow_events
        self._absorbed_slow: Set[int] = set()
        self._msg_events: Dict[int, FaultEvent] = {}
        for ev in plan.events:
            if ev.kind in ("drop", "corrupt", "dup"):
                self._msg_events.setdefault(ev.at, ev)
        # fault kind -> FIFO of unanswered fault record seqs
        self._open: Dict[str, List[int]] = {}

    # ------------------------------------------------------------------
    # scheduling: called from machine primitives
    # ------------------------------------------------------------------

    def tick(self, machine) -> None:
        """Advance the top-level op counter; fire due crash/slow events."""
        op = self.op_index
        self.op_index = op + 1
        for i, ev in enumerate(self._slow_events):
            if i not in self._announced_slow and ev.at <= op < ev.until \
                    and ev.pid < machine.nprocs and ev.pid not in self.dead:
                self._announced_slow.add(i)
                self.note_fault("slow", machine, pid=ev.pid,
                                detail=f"x{ev.factor:g} ops {ev.at}-{ev.until}")
        if not self._pending_crashes:
            return
        due = [ev for ev in self._pending_crashes if ev.at <= op]
        if not due:
            return
        self._pending_crashes = [
            ev for ev in self._pending_crashes if ev.at > op]
        for ev in due:
            pid = ev.pid
            if pid >= machine.nprocs or pid in self.dead:
                continue
            if len(self.dead) + 1 >= machine.nprocs:
                continue  # never kill the last survivor
            self.dead.add(pid)
            self.note_fault("crash", machine, pid=pid, detail=f"at op {op}")

    def slow_factor(self, pid: int) -> float:
        """Current compute-slowdown multiplier for *pid* (>= 1)."""
        op = self.op_index - 1  # the op currently executing
        factor = 1.0
        for ev in self._slow_events:
            if ev.pid == pid and ev.at <= op < ev.until:
                factor *= ev.factor
        return factor

    def message_event(self) -> Optional[FaultEvent]:
        """Consume one message-op index; the scheduled event, if any."""
        idx = self.msg_index
        self.msg_index = idx + 1
        return self._msg_events.get(idx)

    # ------------------------------------------------------------------
    # detection
    # ------------------------------------------------------------------

    def undetected_dead(self) -> List[int]:
        return sorted(self.dead - self._detected)

    def mark_detected(self) -> List[int]:
        """Barrier helper: newly detected dead pids, now marked."""
        newly = self.undetected_dead()
        self._detected.update(newly)
        return newly

    def absorb_expired_slowdowns(self, machine) -> None:
        """Record the barrier absorbing stragglers of ended slow windows."""
        op = self.op_index
        for i, ev in enumerate(self._slow_events):
            if i in self._announced_slow and i not in self._absorbed_slow \
                    and ev.until <= op:
                self._absorbed_slow.add(i)
                self.note_recovery("absorb", machine, pid=ev.pid,
                                   for_kinds=("slow",),
                                   detail=f"straggler x{ev.factor:g} absorbed")

    # ------------------------------------------------------------------
    # the fault / recovery log
    # ------------------------------------------------------------------

    def _span(self, machine, name: str, pid: int,
              v0: Optional[float], v1: Optional[float], seq: int) -> None:
        if machine is None:
            return
        tr = machine._trace()
        if tr is None:
            return
        if v0 is None:
            v0 = (machine.procs[pid].clock
                  if 0 <= pid < machine.nprocs else machine.elapsed())
        if v1 is None:
            v1 = v0
        track = pid if pid >= 0 else "faults"
        with tr.span(name, cat="fault", track=track, virtual_start=v0) as sp:
            sp.set_virtual_end(v1)
            sp.add_counters(seq=seq, op=self.op_index)

    def note_fault(self, kind: str, machine=None, pid: int = -1,
                   detail: str = "", v_start: Optional[float] = None,
                   v_end: Optional[float] = None) -> int:
        """Append an injected-fault record (and its ``fault:*`` span)."""
        seq = len(self.records)
        clock = 0.0
        if machine is not None and 0 <= pid < machine.nprocs:
            clock = machine.procs[pid].clock
        self.records.append(FaultRecord(
            seq=seq, phase="fault", kind=kind, pid=pid,
            op=self.op_index, clock=clock, detail=detail))
        self._open.setdefault(kind, []).append(seq)
        self._span(machine, f"fault:{kind}", pid, v_start, v_end, seq)
        return seq

    def has_open(self, kinds: Sequence[str]) -> bool:
        """True when an injected fault of one of *kinds* awaits recovery.

        Callers use this to tell a transport loss (open ``drop``/
        ``corrupt`` record to pair) from a dead-peer send failure (the
        crash is answered by reassignment, not by the message path).
        """
        return any(self._open.get(k) for k in kinds)

    def note_recovery(self, kind: str, machine=None, pid: int = -1,
                      for_kinds: Sequence[str] = (), detail: str = "",
                      consume: bool = True,
                      v_start: Optional[float] = None,
                      v_end: Optional[float] = None) -> int:
        """Append a recovery record, pairing it with the oldest open fault
        of one of *for_kinds* (FIFO) when *consume* is true."""
        paired = -1
        if consume:
            for fk in for_kinds:
                queue = self._open.get(fk)
                if queue:
                    paired = queue.pop(0)
                    break
        seq = len(self.records)
        clock = 0.0
        if machine is not None and 0 <= pid < machine.nprocs:
            clock = machine.procs[pid].clock
        self.records.append(FaultRecord(
            seq=seq, phase="recovery", kind=kind, pid=pid,
            op=self.op_index, clock=clock, detail=detail,
            paired_with=paired))
        self._span(machine, f"recovery:{kind}", pid, v_start, v_end, seq)
        return seq

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def event_log(self) -> List[Dict[str, object]]:
        return [r.to_dict() for r in self.records]

    def serialized_log(self) -> str:
        """Canonical JSON log — the byte-identical determinism artifact."""
        return json.dumps(self.event_log(), sort_keys=True)

    def unrecovered(self) -> List[FaultRecord]:
        """Injected faults with no paired recovery record (yet).

        Slowdowns with windows that never ended before the run finished
        are excluded from pairing expectations by callers; crash, drop,
        corrupt and dup faults should all end up paired.
        """
        open_seqs = {seq for q in self._open.values() for seq in q}
        return [r for r in self.records if r.seq in open_seqs]

    def summary(self) -> Dict[str, object]:
        injected: Dict[str, int] = {}
        recovered: Dict[str, int] = {}
        for rec in self.records:
            bucket = injected if rec.phase == "fault" else recovered
            bucket[rec.kind] = bucket.get(rec.kind, 0) + 1
        return {
            "plan": self.plan.render(),
            "seed": self.seed,
            "injected": injected,
            "recovered": recovered,
            "dead": sorted(self.dead),
            "unrecovered": [r.to_dict() for r in self.unrecovered()],
        }
