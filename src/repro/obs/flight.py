"""Flight recorder: a fixed-memory ring of recent operational events.

Every process in the serving tier (gateway, each worker) keeps a small
always-on ring buffer of recent spans/events/fault records.  Nothing is
written anywhere in steady state — the ring costs one bounded
``deque.append`` per recorded event and is *zero-allocation when idle*
(no event sites firing means no work at all).  When something goes wrong
the last-N-events timeline is dumped to a ``.flight.jsonl`` artifact,
turning "worker died, respawned" log lines into replayable evidence.

Dump triggers wired through the repo:

- **worker crash** — the gateway dumps *its* ring when a worker dies
  (the dying process cannot dump its own), so the artifact shows the
  requests dispatched to the dead shard;
- **unhandled request error** — a worker dumps its ring when a factor
  request raises past the engine;
- **profile mismatch** — :mod:`repro.obs.profile` dumps when a trace
  disagrees with the simulator clocks.

``repro flight show FILE`` renders an artifact; ``REPRO_FLIGHT=0``
disables recording entirely and ``REPRO_FLIGHT_DIR`` (or
:func:`set_flight_dir`) says where auto-dumps land — with no directory
configured, triggers record the event but write nothing.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

__all__ = [
    "FLIGHT_SCHEMA",
    "DEFAULT_CAPACITY",
    "ENV_VAR",
    "ENV_DIR",
    "FlightRecorder",
    "flight_recorder",
    "set_flight_recorder",
    "set_flight_dir",
    "flight_dir",
    "auto_dump",
    "load_flight",
    "render_flight",
]

FLIGHT_SCHEMA = "repro.flight/1"

#: Events the ring retains; at the serving tier's event granularity
#: (a handful per request) this is minutes of history in ~1 MB.
DEFAULT_CAPACITY = 2048

ENV_VAR = "REPRO_FLIGHT"
ENV_DIR = "REPRO_FLIGHT_DIR"


class FlightRecorder:
    """Bounded ring of event dicts with an atomic JSONL dump.

    Each event is ``{"kind", "name", "t", "wall", ...attrs}`` where
    ``t`` is local ``perf_counter`` seconds and ``wall`` is
    ``time.time()`` — both clocks so dumps from different processes can
    be lined up.  ``capacity`` bounds memory; recording into a full ring
    drops the oldest event (``deque(maxlen=...)`` — no allocation
    beyond the event dict itself).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, proc: str = "main"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.proc = proc
        self.enabled = os.environ.get(ENV_VAR, "1") not in ("", "0")
        self.dropped = 0
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def record(self, kind: str, name: str, **attrs: Any) -> None:
        """Append one event; a no-op (single branch) when disabled."""
        if not self.enabled:
            return
        event: Dict[str, Any] = {
            "kind": kind,
            "name": name,
            "t": time.perf_counter(),
            "wall": time.time(),
        }
        if attrs:
            event.update(attrs)
        with self._lock:
            if len(self._ring) == self.capacity:
                self.dropped += 1
            self._ring.append(event)

    def record_span(self, sp: Dict[str, Any]) -> None:
        """Append a finished span dict (the SpanLog/to_dict schema)."""
        if not self.enabled:
            return
        self.record(
            "span", sp.get("name", "?"),
            t0=sp.get("t0"), t1=sp.get("t1"),
            track=sp.get("track"), **(sp.get("attrs") or {}),
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def snapshot(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self.dropped = 0

    def dump(self, path: str, reason: str = "") -> str:
        """Write header line + one event per line; atomic rename."""
        events = self.snapshot()
        header = {
            "schema": FLIGHT_SCHEMA,
            "proc": self.proc,
            "pid": os.getpid(),
            "reason": reason,
            "wall": time.time(),
            "events": len(events),
            "dropped": self.dropped,
            "capacity": self.capacity,
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for event in events:
                fh.write(json.dumps(event, sort_keys=True) + "\n")
        os.replace(tmp, path)
        return path


# ----------------------------------------------------------------------
# process-global singleton + auto-dump plumbing
# ----------------------------------------------------------------------

_RECORDER: Optional[FlightRecorder] = None
_FLIGHT_DIR: Optional[str] = None
_LOCK = threading.Lock()


def flight_recorder(proc: Optional[str] = None) -> FlightRecorder:
    """The process-wide recorder (created lazily on first use)."""
    global _RECORDER
    if _RECORDER is None:
        with _LOCK:
            if _RECORDER is None:
                _RECORDER = FlightRecorder(proc=proc or f"pid:{os.getpid()}")
    if proc is not None:
        _RECORDER.proc = proc
    return _RECORDER


def set_flight_recorder(recorder: Optional[FlightRecorder]) -> None:
    """Install (or with None reset) the process-wide recorder (tests)."""
    global _RECORDER
    with _LOCK:
        _RECORDER = recorder


def set_flight_dir(path: Optional[str]) -> None:
    """Where :func:`auto_dump` writes artifacts (None disables dumps)."""
    global _FLIGHT_DIR
    _FLIGHT_DIR = path


def flight_dir() -> Optional[str]:
    if _FLIGHT_DIR is not None:
        return _FLIGHT_DIR
    return os.environ.get(ENV_DIR) or None


def auto_dump(reason: str, recorder: Optional[FlightRecorder] = None) -> Optional[str]:
    """Dump the (given or global) recorder into the flight directory.

    Returns the artifact path, or None when no directory is configured,
    recording is disabled, or the dump itself fails — a flight recorder
    must never turn an emergency into a second crash.
    """
    rec = recorder if recorder is not None else flight_recorder()
    directory = flight_dir()
    if directory is None or not rec.enabled:
        return None
    safe_reason = "".join(
        c if c.isalnum() or c in "-_" else "-" for c in reason
    ) or "dump"
    safe_proc = "".join(
        c if c.isalnum() or c in "-_" else "-" for c in rec.proc
    )
    name = f"{safe_proc}-{os.getpid()}-{safe_reason}-{time.time_ns()}.flight.jsonl"
    try:
        os.makedirs(directory, exist_ok=True)
        return rec.dump(os.path.join(directory, name), reason=reason)
    except OSError:
        return None


# ----------------------------------------------------------------------
# artifact reading + rendering (``repro flight show``)
# ----------------------------------------------------------------------


def load_flight(path: str) -> Dict[str, Any]:
    """Parse a ``.flight.jsonl`` artifact into header + events."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty flight artifact")
    header = json.loads(lines[0])
    if header.get("schema") != FLIGHT_SCHEMA:
        raise ValueError(
            f"{path}: schema {header.get('schema')!r} != {FLIGHT_SCHEMA!r}"
        )
    return {"header": header, "events": [json.loads(line) for line in lines[1:]]}


def render_flight(doc: Dict[str, Any]) -> str:
    """Human-readable timeline of a loaded flight artifact."""
    header = doc["header"]
    events = doc["events"]
    lines = [
        f"flight recorder dump — proc {header.get('proc')} "
        f"pid {header.get('pid')} reason {header.get('reason')!r}",
        f"{len(events)} event(s), {header.get('dropped', 0)} dropped "
        f"(ring capacity {header.get('capacity')})",
    ]
    if events:
        t_end = max(e.get("t", 0.0) for e in events)
        for e in events:
            rel = e.get("t", 0.0) - t_end
            extras = {
                k: v for k, v in e.items()
                if k not in ("kind", "name", "t", "wall")
            }
            detail = " ".join(f"{k}={v}" for k, v in sorted(extras.items()))
            lines.append(
                f"  {rel:>10.3f}s  {e.get('kind', '?'):<10} "
                f"{e.get('name', '?'):<28} {detail}"
            )
        lines.append("(times are seconds relative to the newest event)")
    return "\n".join(lines)
