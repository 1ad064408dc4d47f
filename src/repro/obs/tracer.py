"""Zero-dependency, thread-safe span tracer with dual clocks.

A *span* is one named interval of work.  Every span carries two clocks:

- **host** time (``time.perf_counter()``), captured automatically at
  entry/exit — what the wall-clock profiler and Chrome-trace exporter
  report;
- **virtual** time (the :class:`~repro.machine.simulator.SimulatedMachine`
  clock), set explicitly by instrumented callers — what the speedup
  tables are computed from, so a trace can be cross-checked against
  ``PhaseReport``/``elapsed()`` exactly.

Spans nest per thread (a thread-local stack) and land on a *track*: the
owning virtual processor id for machine phases, a job/run id for the
service engine and fuzz driver, or the worker thread name as a fallback.
Counters (search nodes visited, ping-pong rounds, words transferred,
barrier stall…) attach to the innermost open span via :func:`add_counters`.

Tracing is **off by default** and must cost nothing when off:

- :func:`active_tracer` returns ``None`` unless a tracer was installed
  with :func:`set_tracer` / :func:`use_tracer` or ``REPRO_TRACE=1`` is
  set in the environment (read once, lazily);
- the module-level :func:`span` helper returns one shared no-op context
  manager when disabled — no span object is ever allocated;
- hot loops are expected to hoist ``tracer is None`` into a local before
  entering (see :mod:`repro.rectangles.search`), leaving a single
  predictable branch per instrumentation site.

The expected instrumentation idiom::

    from repro import obs

    with obs.span("rect-search", track=pid, virtual_start=clock) as sp:
        best = search(...)
        sp.set_virtual_end(clock_after)
    obs.add_counters(search_node=visited)   # attaches to the open span
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "ENV_VAR",
    "Span",
    "SpanLog",
    "Tracer",
    "TraceContext",
    "active_tracer",
    "add_counters",
    "context",
    "current_span",
    "enabled",
    "make_trace_id",
    "set_tracer",
    "span",
    "use_tracer",
]

ENV_VAR = "REPRO_TRACE"

#: Tri-state: ``False`` = environment not yet consulted.
_env_checked = False

_ACTIVE: Optional["Tracer"] = None
_ACTIVE_LOCK = threading.Lock()


class Span:
    """One finished-or-open interval on a track.

    ``t0``/``t1`` are host perf_counter seconds; ``v0``/``v1`` the
    virtual clock at entry/exit (``None`` when the caller has no virtual
    clock, e.g. host-only service spans).  ``counters`` accumulates
    named numeric facts, ``attrs`` carries inherited trace context plus
    caller metadata, and ``error`` marks spans closed by an exception.
    """

    __slots__ = (
        "name", "cat", "track", "t0", "t1", "v0", "v1",
        "counters", "attrs", "span_id", "parent_id", "error", "_tracer",
    )

    def __init__(
        self,
        name: str,
        cat: str,
        track: Any,
        span_id: int,
        parent_id: Optional[int],
        t0: float,
        v0: Optional[float],
        attrs: Optional[Dict[str, Any]],
    ) -> None:
        self.name = name
        self.cat = cat
        self.track = track
        self.span_id = span_id
        self.parent_id = parent_id
        self.t0 = t0
        self.t1: Optional[float] = None
        self.v0 = v0
        self.v1: Optional[float] = None
        self.counters: Dict[str, float] = {}
        self.attrs: Dict[str, Any] = attrs or {}
        self.error = False
        self._tracer: Optional["Tracer"] = None

    # -- caller-facing helpers ----------------------------------------
    def set_virtual(self, v0: float, v1: Optional[float] = None) -> None:
        """Set the virtual-clock interval (end may follow later)."""
        self.v0 = v0
        if v1 is not None:
            self.v1 = v1

    def set_virtual_end(self, v1: float) -> None:
        self.v1 = v1

    def add_counter(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def add_counters(self, **counters: float) -> None:
        for k, v in counters.items():
            self.counters[k] = self.counters.get(k, 0.0) + v

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    # -- derived ------------------------------------------------------
    @property
    def host_duration(self) -> float:
        return (self.t1 - self.t0) if self.t1 is not None else 0.0

    @property
    def virtual_duration(self) -> float:
        if self.v0 is None or self.v1 is None:
            return 0.0
        return self.v1 - self.v0

    def to_dict(self) -> Dict[str, Any]:
        """JSONL-ready dict (the exporter's one-span-per-line schema)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "cat": self.cat,
            "track": self.track,
            "id": self.span_id,
            "t0": self.t0,
            "t1": self.t1,
        }
        if self.parent_id is not None:
            out["parent"] = self.parent_id
        if self.v0 is not None:
            out["v0"] = self.v0
            out["v1"] = self.v1
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.error:
            out["error"] = True
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, track={self.track!r}, "
            f"host={self.host_duration:.6f}s, virtual={self.virtual_duration:g})"
        )

    # Context-manager protocol so ``with tracer.span(...) as sp`` works.
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.error = True
        # Close on the tracer that opened this span: a tracer passed by
        # kwarg (machine/path instrumentation) must collect its spans
        # even when it is not the process-globally installed one.
        if self._tracer is not None:
            self._tracer._finish(self)
        else:  # pragma: no cover - pre-backref spans
            _finish(self)


class _NullSpan:
    """The shared do-nothing span handed out when tracing is off.

    One instance exists for the whole process; entering it allocates
    nothing (the disabled-mode guarantee the perf gate measures).
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set_virtual(self, v0: float, v1: Optional[float] = None) -> None:
        pass

    def set_virtual_end(self, v1: float) -> None:
        pass

    def add_counter(self, name: str, amount: float = 1.0) -> None:
        pass

    def add_counters(self, **counters: float) -> None:
        pass

    def set_attr(self, key: str, value: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[Span] = []
        self.ctx: Dict[str, Any] = {}
        self.track: Any = None


class Tracer:
    """Collects spans from any number of threads.

    Finished spans are appended to one list under a lock; open spans
    live on per-thread stacks so nesting (and exception unwinding) is
    race-free without coordination.
    """

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._state = _ThreadState()
        self._next_id = 0
        self.created_at = time.perf_counter()

    # -- span lifecycle -----------------------------------------------
    def span(
        self,
        name: str,
        cat: str = "",
        track: Any = None,
        virtual_start: Optional[float] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a span; use as a context manager (closes itself)."""
        state = self._state
        parent = state.stack[-1] if state.stack else None
        if track is None:
            track = (
                parent.track if parent is not None
                else (state.track if state.track is not None
                      else threading.current_thread().name)
            )
        merged: Optional[Dict[str, Any]] = None
        if state.ctx or attrs:
            merged = dict(state.ctx)
            if attrs:
                merged.update(attrs)
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        sp = Span(
            name, cat, track, span_id,
            parent.span_id if parent is not None else None,
            time.perf_counter(), virtual_start, merged,
        )
        sp._tracer = self
        state.stack.append(sp)
        return sp

    def _finish(self, sp: Span) -> None:
        sp.t1 = time.perf_counter()
        state = self._state
        # Pop through any abandoned children: an exception may unwind
        # several instrumented frames before the outermost __exit__ runs,
        # and each level must close exactly once, innermost first.
        while state.stack:
            top = state.stack.pop()
            if top is sp:
                break
            top.error = True
            top.t1 = sp.t1
            with self._lock:
                self.spans.append(top)
        with self._lock:
            self.spans.append(sp)

    def current(self) -> Optional[Span]:
        stack = self._state.stack
        return stack[-1] if stack else None

    def add_counters(self, **counters: float) -> None:
        sp = self.current()
        if sp is not None:
            sp.add_counters(**counters)

    # -- trace context -------------------------------------------------
    def push_context(self, attrs: Dict[str, Any], track: Any = None) -> "TraceContext":
        return TraceContext(self, attrs, track)

    # -- queries -------------------------------------------------------
    def finished(self) -> List[Span]:
        with self._lock:
            return list(self.spans)

    def tracks(self) -> List[Any]:
        seen: Dict[Any, None] = {}
        for sp in self.finished():
            seen.setdefault(sp.track, None)
        return list(seen)

    def phase_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-span-name totals: count, host seconds, virtual units.

        Only *self* time would double-count nested spans' hosts, but
        the repo's phase spans (machine phases, sync primitives) never
        nest among themselves, so plain sums are exact for them; nested
        counter-only spans contribute their own rows.
        """
        out: Dict[str, Dict[str, float]] = {}
        for sp in self.finished():
            row = out.setdefault(
                sp.name, {"count": 0.0, "host_s": 0.0, "virtual": 0.0}
            )
            row["count"] += 1
            row["host_s"] += sp.host_duration
            row["virtual"] += sp.virtual_duration
        return out

    def track_virtual_totals(self) -> Dict[Any, float]:
        """Final virtual clock per track: max span ``v1`` on the track.

        For machine-instrumented runs every clock advance closes a span
        with ``v1 = clock_after``, so this equals the per-processor
        clocks of the last :class:`PhaseReport` — the cross-check the
        profiler and the tracer-correctness tests rely on.
        """
        out: Dict[Any, float] = {}
        for sp in self.finished():
            if sp.v1 is None:
                continue
            prev = out.get(sp.track)
            if prev is None or sp.v1 > prev:
                out[sp.track] = sp.v1
        return out

    def counter_totals(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for sp in self.finished():
            for k, v in sp.counters.items():
                out[k] = out.get(k, 0.0) + v
        return out

    def snapshot(self) -> Dict[str, Any]:
        """Summary sharing the metrics-snapshot schema (see obs.snapshot)."""
        return {
            "name": self.name,
            "span_count": len(self.finished()),
            "phases": self.phase_breakdown(),
            "counters": self.counter_totals(),
            "track_virtual_totals": {
                str(k): v for k, v in self.track_virtual_totals().items()
            },
        }

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()


def make_trace_id() -> str:
    """A fresh 16-hex-char distributed trace id (gateway-minted).

    Random (not sequential) so ids minted by independent gateway
    incarnations — or supplied by clients via ``X-Repro-Trace`` — never
    collide in a shared trace store.
    """
    return os.urandom(8).hex()


class SpanLog:
    """Manual dict-span recorder for interleaved async code.

    :class:`Tracer` nests spans on per-*thread* stacks, which is exactly
    wrong inside one asyncio event loop serving many requests at once:
    every request would stack onto every other.  A ``SpanLog`` drops the
    implicit nesting and records plain span dicts (the
    :meth:`Span.to_dict` JSONL schema) with *explicit* parent ids, which
    is all the cross-process trace assembler needs.

    Each log carries an ``anchor`` — a ``(time.time(), perf_counter())``
    pair captured at construction — so spans recorded against the local
    monotonic clock can be rebased onto a shared wall-clock axis when
    batches from several processes are merged into one request trace.
    """

    __slots__ = ("proc", "anchor", "spans", "_next_id", "_lock")

    def __init__(self, proc: str = "gateway"):
        self.proc = proc
        self.anchor = (time.time(), time.perf_counter())
        self.spans: List[Dict[str, Any]] = []
        self._next_id = 0
        self._lock = threading.Lock()

    def start(
        self,
        name: str,
        cat: str = "serve",
        track: Any = None,
        parent: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Open a span dict; close it with :meth:`finish`."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        sp: Dict[str, Any] = {
            "name": name,
            "cat": cat,
            "track": track if track is not None else self.proc,
            "id": span_id,
            "t0": time.perf_counter(),
            "t1": None,
        }
        if parent is not None:
            sp["parent"] = parent
        if attrs:
            sp["attrs"] = dict(attrs)
        with self._lock:
            self.spans.append(sp)
        return sp

    def finish(self, sp: Dict[str, Any], error: bool = False) -> None:
        sp["t1"] = time.perf_counter()
        if error:
            sp["error"] = True

    def event(
        self,
        name: str,
        cat: str = "serve",
        track: Any = None,
        parent: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """A zero-width span (instant marker, e.g. ``redispatch``)."""
        sp = self.start(name, cat=cat, track=track, parent=parent, attrs=attrs)
        sp["t1"] = sp["t0"]
        return sp

    def batch(self, remote_parent: Optional[int] = None) -> Dict[str, Any]:
        """This log as one trace-assembly batch (see ``obs.export``).

        Open spans are shipped with ``t1 = t0`` rather than dropped — a
        crash dump must show what was in flight.
        """
        with self._lock:
            spans = [dict(sp) for sp in self.spans]
        for sp in spans:
            if sp["t1"] is None:
                sp["t1"] = sp["t0"]
        doc: Dict[str, Any] = {
            "proc": self.proc,
            "anchor": list(self.anchor),
            "spans": spans,
        }
        if remote_parent is not None:
            doc["remote_parent"] = remote_parent
        return doc


class TraceContext:
    """Context manager attaching attrs (and a default track) to spans.

    Used by the service engine and the fuzz driver to make every span
    opened inside a job/run carry the job id — the end-to-end trace
    propagation the batch/fuzz ``--trace`` flags expose.
    """

    def __init__(self, tracer: Tracer, attrs: Dict[str, Any], track: Any = None):
        self._tracer = tracer
        self._attrs = attrs
        self._track = track
        self._saved_ctx: Optional[Dict[str, Any]] = None
        self._saved_track: Any = None

    def __enter__(self) -> "TraceContext":
        state = self._tracer._state
        self._saved_ctx = state.ctx
        self._saved_track = state.track
        state.ctx = {**state.ctx, **self._attrs}
        if self._track is not None:
            state.track = self._track
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        state = self._tracer._state
        state.ctx = self._saved_ctx or {}
        state.track = self._saved_track


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_CONTEXT = _NullContext()


# ----------------------------------------------------------------------
# module-level switch + convenience API
# ----------------------------------------------------------------------

def active_tracer() -> Optional[Tracer]:
    """The installed tracer, or None when tracing is disabled.

    ``REPRO_TRACE=1`` in the environment installs a process-global
    tracer on first use, mirroring ``REPRO_CHECK`` for audits.
    """
    global _env_checked, _ACTIVE
    if _ACTIVE is not None:
        return _ACTIVE
    if not _env_checked:
        with _ACTIVE_LOCK:
            if not _env_checked:
                if os.environ.get(ENV_VAR, "0") not in ("", "0"):
                    _ACTIVE = Tracer(name="env")
                _env_checked = True
    return _ACTIVE


def set_tracer(tracer: Optional[Tracer]) -> None:
    """Install (or, with None, remove) the process-wide tracer.

    Removing also re-arms the lazy ``REPRO_TRACE`` environment check.
    """
    global _ACTIVE, _env_checked
    with _ACTIVE_LOCK:
        _ACTIVE = tracer
        _env_checked = tracer is not None


class use_tracer:
    """``with use_tracer(t):`` — scoped install, restores the previous."""

    def __init__(self, tracer: Optional[Tracer]):
        self.tracer = tracer
        self._prev: Optional[Tracer] = None
        self._prev_checked = False

    def __enter__(self) -> Optional[Tracer]:
        global _ACTIVE, _env_checked
        with _ACTIVE_LOCK:
            self._prev = _ACTIVE
            self._prev_checked = _env_checked
            _ACTIVE = self.tracer
            _env_checked = True
        return self.tracer

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE, _env_checked
        with _ACTIVE_LOCK:
            _ACTIVE = self._prev
            _env_checked = self._prev_checked


def enabled() -> bool:
    """Whether a tracer is active (cheap; hot paths hoist it further)."""
    return active_tracer() is not None


def span(
    name: str,
    cat: str = "",
    track: Any = None,
    virtual_start: Optional[float] = None,
    attrs: Optional[Dict[str, Any]] = None,
):
    """Open a span on the active tracer; no-op singleton when disabled."""
    tr = active_tracer()
    if tr is None:
        return NULL_SPAN
    return tr.span(name, cat=cat, track=track, virtual_start=virtual_start, attrs=attrs)


def current_span():
    tr = active_tracer()
    return tr.current() if tr is not None else None


def add_counters(**counters: float) -> None:
    """Attach counters to the innermost open span (no-op when disabled)."""
    tr = active_tracer()
    if tr is not None:
        sp = tr.current()
        if sp is not None:
            sp.add_counters(**counters)


def context(track: Any = None, **attrs: Any):
    """Scoped trace context (job id, fuzz run, …); no-op when disabled."""
    tr = active_tracer()
    if tr is None:
        return _NULL_CONTEXT
    return tr.push_context(attrs, track=track)


def _finish(sp: Span) -> None:
    """Close *sp* on whatever tracer opened it (module-level seam).

    Spans only exist when a tracer was active at open time; if the
    tracer was swapped out mid-span the close must still not raise, so
    a missing tracer silently drops the span.
    """
    tr = _ACTIVE
    if tr is not None:
        tr._finish(sp)
