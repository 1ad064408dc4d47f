"""Worker processes: one FactorizationEngine per OS process.

Each worker owns a :class:`~repro.service.engine.FactorizationEngine`
(one attempt per job plus the node-budget degrade step; it memoizes
nothing and keeps no state across jobs but its metrics) plus a handle
on the shared persistent :class:`~repro.serve.diskcache.DiskCache`, and
talks to the gateway over a duplex :mod:`multiprocessing` pipe using the
little dict protocol documented in :mod:`repro.serve.protocol`.

Being a real process is the point: the GIL stops threads in one
interpreter from overlapping the pure-Python search loops, so the only
way N concurrent factorizations actually run N-wide is N interpreters.
Results are cached by the gateway's LRU and the shared disk cache, which
the worker probes first and writes every computed document to.

Inside the worker two threads split the work so the control plane stays
responsive while a factorization runs:

- the *control* thread blocks on ``conn.recv()``; ``ping``/``health``
  are answered immediately, ``factor`` ops are stamped and queued;
- the *compute* thread (the process main thread) drains the queue one
  job at a time: probe the disk cache, else run the engine, persist the
  result, reply with the seconds the job waited in the queue
  (``queued_s``).

:class:`WorkerHandle` is the gateway-side counterpart: it spawns (and
respawns) the process, pumps received messages to a callback from a
reader thread, and owns liveness bookkeeping.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
import threading
import time
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.obs.flight import auto_dump, flight_recorder, set_flight_dir
from repro.obs.tracer import Tracer, use_tracer
from repro.serve.diskcache import DiskCache
from repro.serve.protocol import answers, result_document

__all__ = ["worker_main", "WorkerHandle"]


def _resolve_spec_network(spec: Dict[str, Any]):
    if spec.get("eqn"):
        from repro.network.eqn import read_eqn

        return read_eqn(spec["eqn"], name=spec.get("circuit") or "inline")
    from repro.circuits import load_circuit

    return load_circuit(spec["circuit"], scale=spec["scale"])


def worker_main(
    worker_id: int,
    conn,
    cache_dir: Optional[str] = None,
    flight_dir: Optional[str] = None,
    cache_max_bytes: Optional[int] = None,
) -> None:
    """Entry point of one worker process (also callable in-process by
    tests that want the protocol without a fork)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the gateway shuts us down
    from repro.service.engine import FactorizationEngine
    from repro.service.jobs import FactorizationJob

    flight = flight_recorder(proc=f"worker:{worker_id}")
    if flight_dir:
        set_flight_dir(flight_dir)
    # Chaos-serve: a worker-slow:<id>xF event in REPRO_SERVE_FAULTS makes
    # this shard serve F x slower (stretching each job's wall time), the
    # serve-level analogue of the machine's slow:PxF fault.
    slow_factor = 1.0
    from repro.faults.plan import serve_plan_from_env

    _serve_plan = serve_plan_from_env()
    if _serve_plan is not None:
        for _ev in _serve_plan.serve_events("worker-slow"):
            if _ev.pid == worker_id:
                slow_factor = max(slow_factor, _ev.factor)
    disk = DiskCache(cache_dir, max_bytes=cache_max_bytes) if cache_dir else None
    engine = FactorizationEngine()
    send_lock = threading.Lock()
    jobs_done = 0

    def send(msg: Dict[str, Any]) -> None:
        with send_lock:
            try:
                conn.send(msg)
            except (OSError, BrokenPipeError):  # gateway is gone
                pass

    def health_doc() -> Dict[str, Any]:
        doc = {
            "worker": worker_id,
            "pid": os.getpid(),
            "jobs_done": jobs_done,
            "engine": engine.health(),
            # Full registry snapshot (repro.obs/2 histograms include
            # samples) so the gateway can merge one cluster-wide view.
            "metrics": engine.metrics.snapshot(),
        }
        if disk is not None:
            doc["disk_cache"] = disk.stats()
        return doc

    #: (perf_counter at enqueue, message) pairs; None stops the worker.
    work: "queue.Queue[Optional[Tuple[float, Dict[str, Any]]]]" = queue.Queue()

    def control_loop() -> None:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                work.put(None)
                return
            op = msg.get("op")
            if op == "shutdown":
                work.put(None)
                return
            if op in ("ping", "health"):
                send({"op": op, "id": msg.get("id"), **health_doc()})
            else:
                work.put((time.perf_counter(), msg))

    threading.Thread(target=control_loop, daemon=True,
                     name=f"worker-{worker_id}-control").start()
    send({"op": "hello", "worker": worker_id, "pid": os.getpid()})

    def process_factor(key: str, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one factor request; returns the result-msg fields."""
        if disk is not None:
            from repro import obs

            with obs.span("disk-probe", cat="serve"):
                cached = disk.get(key)
            if cached is not None and answers(cached, spec):
                return {"ok": True, "result": cached, "cache": "disk"}
        network = _resolve_spec_network(spec)
        job = FactorizationJob(
            circuit=spec.get("circuit") or network.name,
            network=network,
            algorithm=spec["algorithm"],
            procs=spec["procs"],
            searcher=spec["searcher"],
            scale=spec["scale"],
            node_budget=spec["node_budget"],
            params=dict(spec["params"]),
        )
        res = engine.execute(job)
        if not res.ok:
            return {"ok": False, "error": res.error or "job failed"}
        doc = result_document(spec, res, worker=worker_id)
        if disk is not None:
            disk.put(key, doc)
        return {"ok": True, "result": doc, "cache": "computed"}

    while True:
        item = work.get()
        if item is None:
            break
        queued_at, msg = item
        if msg.get("op") != "factor":
            send({"op": "error", "id": msg.get("id"),
                  "error": f"unknown op {msg.get('op')!r}"})
            continue
        req_id, key, spec = msg["id"], msg["key"], msg["job"]
        started = time.perf_counter()
        queued_s = started - queued_at
        trace_req = msg.get("trace")
        # A fresh per-request tracer: the compute thread handles one
        # factor at a time, so its span stack nests cleanly, and a
        # private tracer means one request's spans never leak into
        # another's batch.
        tracer = Tracer(name=f"worker-{worker_id}") if trace_req else None
        anchor = [time.time(), time.perf_counter()]
        flight.record("request", "factor", job=req_id,
                      algorithm=spec.get("algorithm"))
        try:
            if tracer is not None:
                with use_tracer(tracer):
                    with tracer.span(
                        "worker-factor", cat="serve",
                        track=f"worker:{worker_id}",
                        attrs={"job": req_id,
                               "trace_id": trace_req.get("trace_id"),
                               "queued_s": queued_s},
                    ) as root:
                        fields = process_factor(key, spec)
                        if not fields.get("ok"):
                            root.error = True
            else:
                fields = process_factor(key, spec)
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            error = f"{type(exc).__name__}: {exc}"
            flight.record("error", "request-error", job=req_id, error=error)
            auto_dump("request-error", flight)
            fields = {"ok": False, "error": error}
        if slow_factor > 1.0:
            elapsed = time.perf_counter() - started
            time.sleep(min(elapsed * (slow_factor - 1.0), 1.0))
        if fields.get("ok"):
            jobs_done += 1
        else:
            flight.record("error", "factor-failed", job=req_id,
                          error=fields.get("error"))
        out = {"op": "result", "id": req_id, "worker": worker_id,
               "queued_s": queued_s, **fields}
        if tracer is not None:
            out["trace"] = {
                "trace_id": trace_req.get("trace_id"),
                "proc": f"worker:{worker_id}",
                "anchor": anchor,
                "remote_parent": trace_req.get("parent"),
                "spans": [sp.to_dict() for sp in tracer.finished()],
            }
        send(out)
    try:
        conn.close()
    except OSError:
        pass


#: The gateway-side ends of every worker pipe this process holds open.
#: A forked worker inherits a copy of each; it closes them first thing
#: (:func:`_worker_process_main`) so that the gateway holds the only
#: copies, and its death — even by SIGKILL — gives every worker EOF.
_GATEWAY_ENDS: Set[Any] = set()


def _worker_process_main(*args: Any) -> None:
    for end in list(_GATEWAY_ENDS):
        end.close()
    _GATEWAY_ENDS.clear()
    worker_main(*args)


def _mp_context():
    """Prefer fork (fast, Linux CI) and fall back to the default."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


class WorkerHandle:
    """Gateway-side lifecycle manager for one worker process.

    *on_message*/*on_eof* are invoked **from the reader thread**; the
    gateway bridges them onto its event loop.  ``generation`` increments
    on every (re)spawn so stale callbacks from a dead process's reader
    can be recognized and dropped.
    """

    def __init__(
        self,
        worker_id: int,
        cache_dir: Optional[str],
        on_message: Callable[["WorkerHandle", int, Dict[str, Any]], None],
        on_eof: Callable[["WorkerHandle", int], None],
        flight_dir: Optional[str] = None,
        cache_max_bytes: Optional[int] = None,
    ):
        self.worker_id = worker_id
        self.cache_dir = cache_dir
        self.flight_dir = flight_dir
        self.cache_max_bytes = cache_max_bytes
        self.generation = 0
        self.crashes = 0
        #: crash-loop breaker state, owned by the gateway's event loop:
        #: crashes with no intervening healthy uptime, whether the shard
        #: is currently circuit-broken, and whether a (possibly delayed)
        #: respawn is already scheduled.
        self.consecutive_crashes = 0
        self.failing = False
        self.respawn_pending = False
        self.spawned_at: Optional[float] = None
        self.ready = False
        self.pid: Optional[int] = None
        self.last_health: Optional[Dict[str, Any]] = None
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self._conn = None
        self._on_message = on_message
        self._on_eof = on_eof
        self._send_lock = threading.Lock()

    def spawn(self) -> None:
        """Start (or restart) the worker process and its reader thread."""
        ctx = _mp_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.generation += 1
        self.ready = False
        self.respawn_pending = False
        self.spawned_at = time.monotonic()
        self.pid = None
        with self._send_lock:
            self._close_conn()  # a dead incarnation's end, if any
            self._conn = parent_conn
            _GATEWAY_ENDS.add(parent_conn)
        self.process = ctx.Process(
            target=_worker_process_main,
            args=(self.worker_id, child_conn, self.cache_dir,
                  self.flight_dir, self.cache_max_bytes),
            name=f"repro-serve-worker-{self.worker_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()  # the parent keeps only its own end
        generation = self.generation
        threading.Thread(
            target=self._reader, args=(parent_conn, generation),
            daemon=True, name=f"worker-{self.worker_id}-reader",
        ).start()

    def _reader(self, conn, generation: int) -> None:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                self._on_eof(self, generation)
                return
            self._on_message(self, generation, msg)

    def send(self, msg: Dict[str, Any]) -> bool:
        """Best-effort send; False when the pipe is already dead."""
        with self._send_lock:
            if self._conn is None:
                return False
            try:
                self._conn.send(msg)
                return True
            except (OSError, BrokenPipeError, ValueError):
                return False

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def shutdown(self, timeout: float = 2.0) -> None:
        """Graceful stop, escalating to terminate/kill; never leaks."""
        self.send({"op": "shutdown"})
        proc = self.process
        if proc is None:
            return
        proc.join(timeout)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout)
        if proc.is_alive():  # pragma: no cover - last resort
            proc.kill()
            proc.join(timeout)
        with self._send_lock:
            self._close_conn()

    def _close_conn(self) -> None:
        """Close the gateway's pipe end (caller holds ``_send_lock``)."""
        if self._conn is not None:
            _GATEWAY_ENDS.discard(self._conn)
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None

    def snapshot(self) -> Dict[str, Any]:
        return {
            "worker": self.worker_id,
            "alive": self.alive(),
            "ready": self.ready,
            "pid": self.pid,
            "generation": self.generation,
            "crashes": self.crashes,
            "consecutive_crashes": self.consecutive_crashes,
            "failing": self.failing,
        }
