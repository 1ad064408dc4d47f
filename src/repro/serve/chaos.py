"""Serve-level chaos: process faults against a *real* serving stack.

The machine-level harness (``repro chaos CIRCUIT``) injects faults into
the simulated parallel machine inside one process.  This module is its
process-level counterpart: :func:`run_serve_chaos` boots an actual
``repro serve`` instance as a subprocess, fires a seeded burst of
``wait=false`` requests at it, and injects the serve-level half of the
:class:`~repro.faults.plan.FaultPlan` grammar while the burst is in
flight:

==================== ==================================================
event                injection
==================== ==================================================
``gw-restart@N``     SIGKILL the gateway process after the Nth accepted
                     job, then restart it on the same port and cache
                     directory (the journal replay is what is under
                     test)
``worker-kill:S*K``  SIGKILL shard S's worker process (pid from
                     ``/healthz``) K times, exercising respawn,
                     re-dispatch, and the crash-loop breaker
``cache-corrupt:N``  overwrite N persistent-cache object files with
                     garbage mid-burst (readers must treat them as
                     misses, never crash)
``disk-full@PUT-N``  shipped *into* the serve processes via the
                     ``REPRO_SERVE_FAULTS`` environment plan; every
                     DiskCache write after the Nth raises ENOSPC and
                     the cache must degrade to memory-only
``worker-slow:SxF``  also env-shipped; shard S serves F× slower
==================== ==================================================

After the burst the harness drains **every accepted job id** through
``GET /v1/jobs/<id>`` and verdicts three invariants:

- **zero accepted-job loss** — every 202 job id eventually answers
  (a 404 after a restart means the journal lost it);
- **equivalence** — every answer's ``(initial_lc, final_lc)`` equals a
  fault-free in-process reference run of the same request body;
- **bounded respawns** — no worker's process generation exceeds what
  the injected kills plus the crash-loop breaker allow.

``repro chaos --serve [--seed S --runs N]`` is the CLI face; run *i*
uses :meth:`FaultPlan.random_serve(seed + i, workers)` unless an
explicit ``--plan`` pins one.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.plan import ENV_SERVE_PLAN, FaultPlan
from repro.serve.httpio import http_json

__all__ = [
    "ServeChaosConfig",
    "run_serve_chaos",
    "render_serve_chaos_report",
    "SERVE_CHAOS_SCHEMA",
]

SERVE_CHAOS_SCHEMA = "repro.serve-chaos/1"

#: how long the harness waits for /readyz after (re)starting the stack.
READY_TIMEOUT = 30.0


@dataclass
class ServeChaosConfig:
    """One chaos-serve campaign: ``runs`` bursts, each under its own
    random serve-level plan (or one explicit ``plan`` for every run)."""

    seed: int = 0
    runs: int = 3
    workers: int = 2
    #: requests per burst (the seeded mix below).
    requests: int = 8
    #: explicit spec string (e.g. ``"gw-restart@2,cache-corrupt:2"``);
    #: None draws ``FaultPlan.random_serve(seed + run, workers)``.
    plan: Optional[str] = None
    #: per-run drain deadline, seconds.
    timeout: float = 120.0
    python: str = field(default_factory=lambda: sys.executable)
    #: keep each run's cache directory for post-mortems.
    keep_dirs: bool = False


# ----------------------------------------------------------------------
# request mix and the fault-free reference
# ----------------------------------------------------------------------

_SLOW_EQN: Dict[int, str] = {}


def _slow_probe_eqn(seed: int = 1) -> str:
    """A generated circuit big enough (~0.5-1s) that gateway/worker
    kills land while it is genuinely in flight."""
    if seed not in _SLOW_EQN:
        from repro.circuits.generators import GeneratorSpec, generate_circuit
        from repro.network.eqn import write_eqn

        spec = GeneratorSpec(
            name=f"chaos-serve-{seed}", seed=seed, n_inputs=14,
            target_lc=2500, two_level=False, pool_size=8,
        )
        _SLOW_EQN[seed] = write_eqn(generate_circuit(spec))
    return _SLOW_EQN[seed]


def _request_mix(seed: int, count: int) -> List[Dict[str, Any]]:
    """The deterministic burst: a repeating fast/medium/slow blend with
    some exact duplicates so coalescing and cache reuse get exercised."""
    import random

    rng = random.Random(f"repro-serve-chaos-burst:{seed}")
    bodies: List[Dict[str, Any]] = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            body: Dict[str, Any] = {
                "circuit": "example",
                "algorithm": rng.choice(("sequential", "baseline")),
            }
        elif kind == 1:
            body = {
                "circuit": rng.choice(("dalu", "misex3")),
                "scale": 0.2,
                "algorithm": rng.choice(
                    ("lshaped", "replicated", "independent")),
                "procs": rng.choice((2, 4)),
            }
        else:
            body = {"eqn": _slow_probe_eqn(), "algorithm": "sequential"}
        body["tenant"] = f"chaos{i % 2}"
        body["wait"] = False
        bodies.append(body)
    return bodies


def _body_key(body: Dict[str, Any]) -> str:
    """A stable identity for "same request" across runs (for the
    reference memo) — the compute-relevant fields only."""
    return json.dumps(
        {k: body.get(k) for k in
         ("circuit", "eqn", "algorithm", "procs", "scale", "searcher",
          "node_budget", "params")},
        sort_keys=True,
    )


_REFERENCE: Dict[str, Tuple[int, int]] = {}


def _reference_lc(body: Dict[str, Any]) -> Tuple[int, int]:
    """Fault-free ``(initial_lc, final_lc)`` for one request body,
    computed in-process exactly the way a worker would and memoized
    across runs (every algorithm in the mix is deterministic)."""
    key = _body_key(body)
    if key in _REFERENCE:
        return _REFERENCE[key]
    from repro.serve.protocol import parse_job_request
    from repro.serve.worker import _resolve_spec_network
    from repro.service.engine import FactorizationEngine
    from repro.service.jobs import FactorizationJob

    spec = parse_job_request(dict(body))
    network = _resolve_spec_network(spec)
    engine = FactorizationEngine()
    res = engine.execute(FactorizationJob(
        circuit=spec.get("circuit") or network.name,
        network=network,
        algorithm=spec["algorithm"],
        procs=spec["procs"],
        searcher=spec["searcher"],
        scale=spec["scale"],
        node_budget=spec["node_budget"],
        params=dict(spec["params"]),
    ))
    if not res.ok:
        raise RuntimeError(f"reference run failed: {res.error}")
    _REFERENCE[key] = (res.initial_lc, res.final_lc)
    return _REFERENCE[key]


# ----------------------------------------------------------------------
# subprocess plumbing
# ----------------------------------------------------------------------

def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _serve_env(plan: FaultPlan) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    # The env plan carries the *in-process* serve faults (disk-full,
    # worker-slow); the serve stack filters by kind, so shipping the
    # whole plan is harmless.
    if plan.serve_events("disk-full", "worker-slow"):
        env[ENV_SERVE_PLAN] = plan.render()
    else:
        env.pop(ENV_SERVE_PLAN, None)
    return env


class _ServeProc:
    """The ``repro serve`` subprocess plus restart bookkeeping."""

    def __init__(self, config: ServeChaosConfig, port: int,
                 cache_dir: str, env: Dict[str, str]):
        self.config = config
        self.port = port
        self.cache_dir = cache_dir
        self.env = env
        self.url = f"http://127.0.0.1:{port}"
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.restarts = 0

    async def start(self) -> None:
        self.proc = await asyncio.create_subprocess_exec(
            self.config.python, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", str(self.port),
            "--workers", str(self.config.workers),
            "--cache-dir", self.cache_dir, "--no-trace",
            env=self.env,
            stdout=asyncio.subprocess.DEVNULL,
            stderr=asyncio.subprocess.DEVNULL,
        )
        await self.wait_ready()

    async def wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            if self.proc is not None and self.proc.returncode is not None:
                raise RuntimeError(
                    f"serve process exited early "
                    f"(rc={self.proc.returncode})")
            try:
                status, _ = await http_json(
                    "GET", self.url + "/readyz", timeout=2.0)
                if status == 200:
                    return
            except OSError:
                pass
            await asyncio.sleep(0.1)
        raise RuntimeError("serve process never became ready")

    async def kill9(self) -> None:
        """The gw-restart injection: an honest SIGKILL, no drain."""
        assert self.proc is not None
        try:
            self.proc.kill()
        except ProcessLookupError:
            pass
        await self.proc.wait()

    async def restart(self) -> None:
        self.restarts += 1
        await self.start()

    async def stop(self) -> None:
        if self.proc is None or self.proc.returncode is not None:
            return
        try:
            self.proc.terminate()
        except ProcessLookupError:
            return
        try:
            await asyncio.wait_for(self.proc.wait(), timeout=15.0)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()


async def _post_until_accepted(
    serve: _ServeProc, body: Dict[str, Any], deadline: float,
) -> Optional[Dict[str, Any]]:
    """POST one burst request, riding out restart windows (connection
    refused), 503 shard-failing, and 429 back-pressure.  Returns the
    202/200 document, or None if the deadline expires."""
    while time.monotonic() < deadline:
        try:
            status, doc = await http_json(
                "POST", serve.url + "/v1/factor", dict(body), timeout=10.0)
        except (OSError, asyncio.TimeoutError):
            await asyncio.sleep(0.2)
            continue
        if status in (200, 202):
            return doc
        if status in (429, 503):
            retry = 0.2
            if isinstance(doc, dict):
                retry = min(float(doc.get("retry_after", retry) or retry),
                            1.0)
            await asyncio.sleep(retry)
            continue
        raise RuntimeError(f"unexpected POST status {status}: {doc!r}")
    return None


async def _poll_job(
    serve: _ServeProc, job_id: str, deadline: float,
) -> Tuple[str, Optional[Dict[str, Any]]]:
    """Drain one accepted job to a verdict.

    Returns ``("done", result_doc)``, ``("failed", doc)``, ``("lost",
    None)`` for a sustained 404 (the durability violation), or
    ``("timeout", None)``.
    """
    misses = 0
    while time.monotonic() < deadline:
        try:
            status, doc = await http_json(
                "GET", f"{serve.url}/v1/jobs/{job_id}", timeout=10.0)
        except (OSError, asyncio.TimeoutError):
            await asyncio.sleep(0.2)
            continue
        if status == 404:
            # Tolerate a brief window (a restart still replaying), but a
            # sustained 404 is exactly the loss this harness exists to
            # catch.
            misses += 1
            if misses >= 10:
                return "lost", None
            await asyncio.sleep(0.3)
            continue
        misses = 0
        job_status = doc.get("status")
        if job_status == "done":
            return "done", doc.get("result")
        if job_status == "failed":
            return "failed", doc
        await asyncio.sleep(0.15)
    return "timeout", None


def _corrupt_cache_entries(cache_dir: str, count: int) -> int:
    """Overwrite up to ``count`` persistent-cache object files with
    garbage (deterministically: sorted order)."""
    corrupted = 0
    root = Path(cache_dir)
    for path in sorted(root.glob("*/objects/*/*.json")):
        if corrupted >= count:
            break
        try:
            path.write_text('{"corrupt')
            corrupted += 1
        except OSError:
            continue
    return corrupted


async def _kill_worker(serve: _ServeProc, shard: int) -> bool:
    """SIGKILL shard's current worker process, pid from /healthz."""
    try:
        status, doc = await http_json(
            "GET", serve.url + "/healthz", timeout=5.0)
    except (OSError, asyncio.TimeoutError):
        return False
    if status != 200:
        return False
    snap = (doc.get("workers") or {}).get(str(shard))
    pid = snap.get("pid") if isinstance(snap, dict) else None
    if not pid:
        return False
    try:
        os.kill(int(pid), signal.SIGKILL)
    except (OSError, ProcessLookupError):
        return False
    return True


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------

async def _chaos_run(
    config: ServeChaosConfig, run_index: int, plan: FaultPlan,
) -> Dict[str, Any]:
    run_seed = config.seed + run_index
    cache_dir = tempfile.mkdtemp(prefix=f"repro-chaos-serve-{run_index}-")
    serve = _ServeProc(
        config, _free_port(), cache_dir, _serve_env(plan))
    started = time.perf_counter()
    deadline = time.monotonic() + config.timeout

    gw_restarts = sorted(
        ev.at for ev in plan.serve_events("gw-restart"))
    worker_kills = [
        (ev.pid % max(1, config.workers), ev.attempts)
        for ev in plan.serve_events("worker-kill")
    ]
    corrupt_total = sum(
        ev.at for ev in plan.serve_events("cache-corrupt"))

    outcome: Dict[str, Any] = {
        "run": run_index,
        "seed": run_seed,
        "plan": plan.render(),
        "accepted": 0,
        "answered": 0,
        "lost": 0,
        "failed": 0,
        "timed_out": 0,
        "mismatched": 0,
        "gw_restarts": 0,
        "worker_kills": 0,
        "cache_corrupted": 0,
        "respawn_ok": True,
        "ok": False,
    }
    jobs: List[Tuple[str, Dict[str, Any]]] = []
    try:
        await _chaos_run_body(
            config, serve, run_seed, deadline, outcome, jobs,
            gw_restarts, worker_kills, corrupt_total, cache_dir)
    except Exception as exc:  # noqa: BLE001 - one run must not kill the rest
        outcome["error"] = f"{type(exc).__name__}: {exc}"
        outcome["ok"] = False
    finally:
        await serve.stop()
        outcome["elapsed"] = round(time.perf_counter() - started, 3)
        if config.keep_dirs:
            outcome["cache_dir"] = cache_dir
        else:
            import shutil

            shutil.rmtree(cache_dir, ignore_errors=True)
    return outcome


async def _chaos_run_body(
    config: ServeChaosConfig,
    serve: "_ServeProc",
    run_seed: int,
    deadline: float,
    outcome: Dict[str, Any],
    jobs: List[Tuple[str, Dict[str, Any]]],
    gw_restarts: List[int],
    worker_kills: List[Tuple[int, int]],
    corrupt_total: int,
    cache_dir: str,
) -> None:
    await serve.start()

    # -- burst, injecting gateway kills at their accept offsets --------
    bodies = _request_mix(run_seed, config.requests)
    for body in bodies:
        while gw_restarts and outcome["accepted"] >= gw_restarts[0]:
            gw_restarts.pop(0)
            await serve.kill9()
            await serve.restart()
            outcome["gw_restarts"] += 1
        doc = await _post_until_accepted(serve, body, deadline)
        if doc is None:
            outcome["timed_out"] += 1
            continue
        outcome["accepted"] += 1
        jobs.append((doc["job_id"], body))
    # A gw-restart scheduled past the burst end fires here — the pure
    # "kill with everything in flight, then recover" case.
    for _ in gw_restarts:
        await serve.kill9()
        await serve.restart()
        outcome["gw_restarts"] += 1

    # -- mid-flight worker kills and cache corruption ------------------
    for shard, attempts in worker_kills:
        for _ in range(attempts):
            if await _kill_worker(serve, shard):
                outcome["worker_kills"] += 1
            await asyncio.sleep(0.3)
    if corrupt_total:
        outcome["cache_corrupted"] = _corrupt_cache_entries(
            cache_dir, corrupt_total)

    # -- drain every accepted job to a verdict -------------------------
    for job_id, body in jobs:
        verdict, result = await _poll_job(serve, job_id, deadline)
        if verdict == "done":
            outcome["answered"] += 1
            expected = _reference_lc(body)
            got = (result or {}).get("initial_lc"), \
                (result or {}).get("final_lc")
            if got != expected:
                outcome["mismatched"] += 1
        elif verdict == "lost":
            outcome["lost"] += 1
        elif verdict == "failed":
            outcome["failed"] += 1
        else:
            outcome["timed_out"] += 1

    # -- bounded respawn: generations never exceed what the injected
    #    kills plus a restart can explain ------------------------------
    kills_by_shard: Dict[int, int] = {}
    for shard, attempts in worker_kills:
        kills_by_shard[shard] = kills_by_shard.get(shard, 0) + attempts
    try:
        status, health = await http_json(
            "GET", serve.url + "/healthz", timeout=5.0)
    except (OSError, asyncio.TimeoutError):
        status, health = 0, {}
    if status == 200:
        for wid, snap in (health.get("workers") or {}).items():
            allowed = 2 + 2 * kills_by_shard.get(int(wid), 0)
            if int(snap.get("generation", 1)) > allowed:
                outcome["respawn_ok"] = False
    outcome["ok"] = (
        outcome["lost"] == 0
        and outcome["mismatched"] == 0
        and outcome["failed"] == 0
        and outcome["timed_out"] == 0
        and outcome["respawn_ok"]
    )


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------

async def _campaign(config: ServeChaosConfig) -> Dict[str, Any]:
    runs: List[Dict[str, Any]] = []
    explicit = (
        FaultPlan.parse(config.plan) if config.plan else None)
    for i in range(config.runs):
        plan = explicit if explicit is not None else FaultPlan.random_serve(
            config.seed + i, config.workers)
        runs.append(await _chaos_run(config, i, plan))
    totals = {
        key: sum(r[key] for r in runs)
        for key in ("accepted", "answered", "lost", "failed",
                    "timed_out", "mismatched", "gw_restarts",
                    "worker_kills", "cache_corrupted")
    }
    return {
        "schema": SERVE_CHAOS_SCHEMA,
        "seed": config.seed,
        "runs": config.runs,
        "workers": config.workers,
        "requests_per_run": config.requests,
        "plan": config.plan,
        "run_results": runs,
        "totals": totals,
        "ok": all(r["ok"] for r in runs),
    }


def run_serve_chaos(config: ServeChaosConfig) -> Dict[str, Any]:
    """Run the whole campaign; returns the report document."""
    return asyncio.run(_campaign(config))


def render_serve_chaos_report(report: Dict[str, Any]) -> str:
    lines = [
        f"serve chaos: {report['runs']} run(s), seed {report['seed']}, "
        f"{report['workers']} worker(s), "
        f"{report['requests_per_run']} request(s)/run",
    ]
    for run in report["run_results"]:
        verdict = "ok" if run["ok"] else "FAILED"
        lines.append(
            f"  run {run['run']:2d} [{verdict:>6s}] plan={run['plan']!r} "
            f"accepted={run['accepted']} answered={run['answered']} "
            f"lost={run['lost']} failed={run['failed']} "
            f"timeout={run['timed_out']} mismatch={run['mismatched']} "
            f"gw-restarts={run['gw_restarts']} "
            f"worker-kills={run['worker_kills']} "
            f"({run['elapsed']:.1f}s)"
        )
    totals = report["totals"]
    lines.append(
        f"totals: accepted={totals['accepted']} "
        f"answered={totals['answered']} lost={totals['lost']} "
        f"failed={totals['failed']} mismatched={totals['mismatched']}"
    )
    lines.append(f"verdict: {'ok' if report['ok'] else 'FAILED'}")
    return "\n".join(lines)
