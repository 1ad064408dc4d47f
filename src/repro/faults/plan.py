"""Deterministic fault schedules for the simulated machine.

A :class:`FaultPlan` is a frozen, seeded schedule of faults — processor
crashes, slowdowns, and message drops / corruption / duplication — that the
:class:`~repro.faults.injector.FaultInjector` replays against a
:class:`~repro.machine.simulator.SimulatedMachine`.  Two runs with the
same ``(plan, seed)`` inject byte-identical fault sequences; an empty
plan (``FaultPlan.none()``) is *exactly* the fault-free path — the
machine never even consults the injector.

Time coordinates
----------------
Crash and slowdown events fire at **top-level machine operations** (each
``run_phase``/``barrier``/``broadcast``/``charge_all`` and each
non-nested ``send``/``charge`` is one operation, counted from 0).
Message events (drop/corrupt/dup) fire at **message operations** (each
``send``/``broadcast`` consumes one index, counted from 0).  Both
counters are deterministic properties of the algorithm being run.

Crash events are normalized to ``at >= 1`` so operation 0 — always the
partition/setup phase in the parallel algorithms — completes before any
processor can die, and the injector never kills the last surviving
processor regardless of what the plan asks for.

Spec strings
------------
``FaultPlan.parse`` accepts a compact comma-separated spec (the
``--plan`` of ``repro chaos``)::

    crash:1@3            processor 1 dies before top-level op 3
    slow:2x4@5-12        processor 2 runs 4x slower during ops [5, 12)
    drop:7               message op 7 fails once (recovered by retransmit)
    drop:7*3             ... fails 3 times (permanent with max_retransmits=2)
    corrupt:4[*K]        checksum mismatch on message op 4 (K attempts)
    dup:9                message op 9 delivered twice (receiver dedupes)

Serve-level faults
------------------
The same grammar also schedules **process-level** faults against the
real serving stack (:mod:`repro.serve`), replayed by ``repro chaos
--serve`` rather than the simulated machine — the
:class:`~repro.faults.injector.FaultInjector` ignores these kinds, so a
mixed plan is safe everywhere::

    gw-restart@N         kill -9 the gateway after N accepted requests,
                         then restart it on the same cache dir (journal
                         replay must answer every accepted job)
    worker-kill:S[*K]    SIGKILL worker shard S, K times in a row
                         (respawn backoff / crash-loop breaker territory)
    disk-full@PUT-N      DiskCache.put raises ENOSPC from the N-th put
                         on (memory-only degradation, never a 500)
    cache-corrupt:N      N persisted cache entries are overwritten with
                         garbage mid-burst (quarantine-as-miss + fsck)
    worker-slow:SxF      worker shard S serves F x slower

``gw-restart``/``worker-kill``/``cache-corrupt`` are injected by the
chaos harness from outside the serve process; ``disk-full`` and
``worker-slow`` travel *into* it via the ``REPRO_SERVE_FAULTS``
environment variable (:func:`serve_plan_from_env`).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

FAULT_KINDS = ("crash", "slow", "drop", "corrupt", "dup")

#: Process-level faults against the real serving stack, driven by
#: ``repro chaos --serve`` (see module docstring).  The machine-level
#: :class:`~repro.faults.injector.FaultInjector` ignores these kinds.
SERVE_FAULT_KINDS = (
    "gw-restart", "worker-kill", "disk-full", "cache-corrupt", "worker-slow",
)

ALL_FAULT_KINDS = FAULT_KINDS + SERVE_FAULT_KINDS

#: Environment variable carrying a serve-level plan into the serve
#: processes (the chaos harness sets it; DiskCache and the workers read
#: their own kinds out of it).
ENV_SERVE_PLAN = "REPRO_SERVE_FAULTS"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``at`` is a top-level operation index for crash/slow events and a
    message operation index for drop/corrupt/dup events.  ``until``
    (exclusive) and ``factor`` apply to slowdowns; ``attempts`` is the
    number of consecutive failed transmissions for drop/corrupt events.
    """

    kind: str
    pid: int = -1
    at: int = 0
    until: int = 0
    factor: float = 1.0
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ALL_FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind in ("crash", "slow", "worker-kill", "worker-slow") \
                and self.pid < 0:
            raise ValueError(f"{self.kind} event needs a pid")
        if self.kind in ("slow", "worker-slow") and self.factor < 1.0:
            raise ValueError("slowdown factor must be >= 1")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")

    @property
    def serve_level(self) -> bool:
        """True for process-level faults the chaos-serve harness owns."""
        return self.kind in SERVE_FAULT_KINDS

    def render(self) -> str:
        """The canonical spec-string form of this event."""
        if self.kind == "crash":
            return f"crash:{self.pid}@{self.at}"
        if self.kind == "slow":
            return f"slow:{self.pid}x{self.factor:g}@{self.at}-{self.until}"
        if self.kind == "gw-restart":
            return f"gw-restart@{self.at}"
        if self.kind == "disk-full":
            return f"disk-full@PUT-{self.at}"
        if self.kind == "worker-kill":
            base = f"worker-kill:{self.pid}"
            return f"{base}*{self.attempts}" if self.attempts > 1 else base
        if self.kind == "worker-slow":
            return f"worker-slow:{self.pid}x{self.factor:g}"
        base = f"{self.kind}:{self.at}"
        return f"{base}*{self.attempts}" if self.attempts > 1 else base

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind, "pid": self.pid, "at": self.at,
            "until": self.until, "factor": self.factor,
            "attempts": self.attempts,
        }


def _sort_key(ev: FaultEvent) -> Tuple:
    return (ev.at, ALL_FAULT_KINDS.index(ev.kind), ev.pid, ev.attempts)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, ordered schedule of :class:`FaultEvent`\\ s.

    ``detection_timeout`` is the virtual-clock cost every surviving
    processor pays at the first barrier after an undetected crash (the
    cost of the failure detector firing); ``retransmit_timeout`` is the
    per-failed-attempt ack-timeout added to a sender's clock;
    ``max_retransmits`` bounds retransmission — a message whose injected
    failure count exceeds it is permanently lost and must be recovered
    by the algorithm (journal replay).
    """

    events: Tuple[FaultEvent, ...] = ()
    detection_timeout: float = 400.0
    max_retransmits: int = 2
    retransmit_timeout: float = 150.0

    def __post_init__(self) -> None:
        # Normalize: crashes never before op 1, events in canonical order.
        normalized = tuple(sorted(
            (replace(ev, at=max(1, ev.at)) if ev.kind == "crash" else ev
             for ev in self.events),
            key=_sort_key,
        ))
        object.__setattr__(self, "events", normalized)

    # -- constructors ---------------------------------------------------

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: running under it is the fault-free path."""
        return cls()

    @classmethod
    def parse(cls, spec: str, **kwargs) -> "FaultPlan":
        """Parse the compact spec grammar (see module docstring)."""
        events: List[FaultEvent] = []
        for raw in spec.replace(";", ",").split(","):
            part = raw.strip()
            if not part:
                continue
            try:
                # Serve-level forms without a colon come first: the
                # generic partition(":") split below would mangle them.
                if part.startswith("gw-restart@"):
                    events.append(FaultEvent(
                        "gw-restart", at=int(part[len("gw-restart@"):])))
                    continue
                if part.startswith("disk-full@PUT-"):
                    events.append(FaultEvent(
                        "disk-full", at=int(part[len("disk-full@PUT-"):])))
                    continue
                kind, _, rest = part.partition(":")
                kind = kind.strip()
                if kind == "crash":
                    pid_s, _, at_s = rest.partition("@")
                    events.append(FaultEvent(
                        "crash", pid=int(pid_s), at=int(at_s) if at_s else 4))
                elif kind == "slow":
                    head, _, window = rest.partition("@")
                    pid_s, _, factor_s = head.partition("x")
                    start_s, _, end_s = window.partition("-")
                    start = int(start_s) if start_s else 1
                    events.append(FaultEvent(
                        "slow", pid=int(pid_s),
                        factor=float(factor_s) if factor_s else 4.0,
                        at=start, until=int(end_s) if end_s else start + 15))
                elif kind in ("drop", "corrupt", "dup"):
                    at_s, _, attempts_s = rest.partition("*")
                    events.append(FaultEvent(
                        kind, at=int(at_s),
                        attempts=int(attempts_s) if attempts_s else 1))
                elif kind == "worker-kill":
                    pid_s, _, attempts_s = rest.partition("*")
                    events.append(FaultEvent(
                        "worker-kill", pid=int(pid_s),
                        attempts=int(attempts_s) if attempts_s else 1))
                elif kind == "worker-slow":
                    pid_s, _, factor_s = rest.partition("x")
                    events.append(FaultEvent(
                        "worker-slow", pid=int(pid_s),
                        factor=float(factor_s) if factor_s else 4.0))
                elif kind == "cache-corrupt":
                    events.append(FaultEvent("cache-corrupt", at=int(rest)))
                else:
                    raise ValueError(f"unknown fault kind {kind!r}")
            except (ValueError, TypeError) as exc:
                raise ValueError(f"bad fault spec element {part!r}: {exc}") from exc
        return cls(events=tuple(events), **kwargs)

    @classmethod
    def random_single(cls, seed: int, nprocs: int, **kwargs) -> "FaultPlan":
        """A chaos plan: one crash plus 1–2 message drops, seeded.

        This is the per-run plan behind ``repro fuzz --faults`` and the
        acceptance sweep: deterministic in ``(seed, nprocs)``.
        """
        rng = random.Random(f"repro-chaos:{seed}:{nprocs}")
        events = [FaultEvent("crash", pid=rng.randrange(nprocs),
                             at=1 + rng.randrange(11))]
        for _ in range(1 + rng.randrange(2)):
            events.append(FaultEvent(
                "drop", at=rng.randrange(60), attempts=1 + rng.randrange(3)))
        return cls(events=tuple(events), **kwargs)

    @classmethod
    def random_serve(cls, seed: int, shards: int, **kwargs) -> "FaultPlan":
        """A serve-level chaos plan, deterministic in ``(seed, shards)``.

        Draws one *primary* process fault (gateway kill, worker kill, or
        a disk-full onset) plus 0–2 secondary pressure faults, spanning
        the full serve grammar across a seed sweep.
        """
        rng = random.Random(f"repro-serve-chaos:{seed}:{shards}")
        events: List[FaultEvent] = []
        primary = rng.choice(("gw-restart", "worker-kill", "disk-full"))
        if primary == "gw-restart":
            events.append(FaultEvent("gw-restart", at=2 + rng.randrange(6)))
        elif primary == "worker-kill":
            events.append(FaultEvent(
                "worker-kill", pid=rng.randrange(shards),
                attempts=1 + rng.randrange(2)))
        else:
            events.append(FaultEvent("disk-full", at=rng.randrange(4)))
        for _ in range(rng.randrange(3)):
            kind = rng.choice(("cache-corrupt", "worker-slow"))
            if kind == "cache-corrupt":
                events.append(FaultEvent(
                    "cache-corrupt", at=1 + rng.randrange(3)))
            else:
                events.append(FaultEvent(
                    "worker-slow", pid=rng.randrange(shards),
                    factor=float(2 + rng.randrange(4))))
        return cls(events=tuple(events), **kwargs)

    # -- introspection --------------------------------------------------

    def is_empty(self) -> bool:
        return not self.events

    def serve_events(self, *kinds: str) -> Tuple[FaultEvent, ...]:
        """The serve-level events, optionally filtered to ``kinds``."""
        return tuple(
            ev for ev in self.events
            if ev.serve_level and (not kinds or ev.kind in kinds))

    def render(self) -> str:
        """The canonical comma-separated spec string."""
        return ",".join(ev.render() for ev in self.events)

    def to_dict(self) -> Dict[str, object]:
        return {
            "events": [ev.to_dict() for ev in self.events],
            "detection_timeout": self.detection_timeout,
            "max_retransmits": self.max_retransmits,
            "retransmit_timeout": self.retransmit_timeout,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        events = tuple(
            FaultEvent(**ev) for ev in data.get("events", ())  # type: ignore[arg-type]
        )
        return cls(
            events=events,
            detection_timeout=float(data.get("detection_timeout", 400.0)),
            max_retransmits=int(data.get("max_retransmits", 2)),
            retransmit_timeout=float(data.get("retransmit_timeout", 150.0)),
        )


def serve_plan_from_env() -> Optional[FaultPlan]:
    """The serve-level plan carried by ``REPRO_SERVE_FAULTS``, if any.

    Serve processes (DiskCache, workers) call this at startup to learn
    which in-process faults the chaos harness scheduled for them.
    Returns ``None`` when the variable is unset/empty or the plan has no
    serve-level events.
    """
    spec = os.environ.get(ENV_SERVE_PLAN, "").strip()
    if not spec:
        return None
    plan = FaultPlan.parse(spec)
    if not plan.serve_events():
        return None
    return plan


def resolve_fault_injector(faults=None):
    """Normalize the ``faults=`` argument the parallel entry points take.

    Accepts ``None`` (the fault-free path), a :class:`FaultPlan`, or a
    ready :class:`~repro.faults.injector.FaultInjector`; anything else
    (a spec string included: parse it with :meth:`FaultPlan.parse`)
    raises :class:`TypeError`.  Returns an injector, or ``None`` when
    there is no plan or it is empty — an empty plan must be
    byte-identical to (and as cheap as) the fault-free path, so it is
    represented by the absence of an injector.
    """
    from repro.faults.injector import FaultInjector

    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        faults = FaultInjector(faults)
    elif not isinstance(faults, FaultInjector):
        raise TypeError(
            "faults= takes None, a FaultPlan or a FaultInjector, not "
            f"{type(faults).__name__} (parse a spec string with FaultPlan.parse)"
        )
    if faults.plan.is_empty():
        return None
    return faults
