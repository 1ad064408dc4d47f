"""Open-loop load generator for the serving tier.

Arrivals are a Poisson process: inter-arrival gaps are drawn
``expovariate(rate)`` from a seeded RNG, and every arrival fires on
schedule *regardless of how many requests are still outstanding* — the
open-loop discipline that actually reveals saturation.  (A closed loop
of K workers self-throttles: when the server slows down, so does the
offered load, and the latency curve flatters the server.  See the
coordinated-omission literature.)

Each request POSTs one body from the workload list (cycled, with the
tenant stamped round-robin across ``tenants`` synthetic tenants),
measures wall-clock latency, and classifies the outcome:

- ``ok``       — HTTP 200/202,
- ``rejected`` — HTTP 429 (admission control doing its job),
- ``failed``   — anything else, including transport errors.

The report carries p50/p95/p99 latency (nearest-rank over completed
requests), achieved throughput, the per-source cache mix, and the
gateway's coalesced-request delta read from ``/metrics`` before and
after the run.  ``repro loadgen URL`` is the CLI wrapper.
:func:`probe_circuit_eqn` builds fresh circuits for coalescing probes.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.serve.httpio import http_json

__all__ = [
    "LoadgenConfig",
    "LoadReport",
    "default_workload",
    "load_workload_file",
    "percentile",
    "poisson_arrivals",
    "probe_circuit_eqn",
    "run_loadgen",
]


def default_workload() -> List[Dict[str, Any]]:
    """A small mixed workload over the paper's example network."""
    return [
        {"circuit": "example", "algorithm": "sequential"},
        {"circuit": "example", "algorithm": "lshaped", "procs": 2},
        {"circuit": "example", "algorithm": "independent", "procs": 2},
    ]


def probe_circuit_eqn(seed: int) -> str:
    """A deterministic, non-trivial circuit no cache has seen before.

    Deliberately sized so one factorization takes tens of milliseconds:
    long enough that K identical requests all arrive while the first is
    still computing, which is what makes a coalescing assertion
    deterministic rather than a race.
    """
    from repro.circuits.generators import GeneratorSpec, generate_circuit
    from repro.network.eqn import write_eqn

    spec = GeneratorSpec(
        name=f"coalesce-probe-{seed}", seed=seed, n_inputs=12,
        target_lc=300, two_level=False, pool_size=6,
    )
    return write_eqn(generate_circuit(spec))


def load_workload_file(path: str) -> List[Dict[str, Any]]:
    """Request bodies from a JSONL file (one JSON object per line)."""
    bodies = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            try:
                doc = json.loads(raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad JSON: {exc}") from None
            if not isinstance(doc, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object")
            bodies.append(doc)
    if not bodies:
        raise ValueError(f"{path}: no request bodies found")
    return bodies


def percentile(sorted_values: List[float], p: float) -> Optional[float]:
    """Nearest-rank percentile over an already-sorted list."""
    if not sorted_values:
        return None
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(p / 100.0 * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def poisson_arrivals(rate: float, duration: float, seed: int) -> List[float]:
    """Deterministic arrival offsets (seconds) for one run."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be > 0")
    rng = random.Random(seed)
    arrivals: List[float] = []
    t = rng.expovariate(rate)
    while t < duration:
        arrivals.append(t)
        t += rng.expovariate(rate)
    return arrivals


@dataclass
class LoadgenConfig:
    url: str
    rate: float = 20.0          # mean arrivals/second
    duration: float = 5.0       # seconds of offered load
    tenants: int = 1            # round-robin synthetic tenants
    seed: int = 0
    timeout: float = 30.0       # per-request client timeout
    workload: List[Dict[str, Any]] = field(default_factory=default_workload)
    #: extra seconds to wait for stragglers after the last arrival.
    drain_timeout: float = 30.0


@dataclass
class LoadReport:
    """Everything one open-loop run measured."""

    rate: float
    duration: float
    sent: int
    ok: int
    rejected: int
    failed: int
    latencies_ms: Dict[str, Optional[float]]
    throughput_rps: float
    cache_mix: Dict[str, int]
    coalesced: int
    tenants: int
    errors: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rate": self.rate,
            "duration_s": self.duration,
            "sent": self.sent,
            "ok": self.ok,
            "rejected": self.rejected,
            "failed": self.failed,
            "latency_ms": self.latencies_ms,
            "throughput_rps": self.throughput_rps,
            "cache_mix": self.cache_mix,
            "coalesced": self.coalesced,
            "tenants": self.tenants,
            "errors": self.errors[:10],
        }

    def render(self) -> str:
        lat = self.latencies_ms
        fmt = (lambda v: f"{v:.1f}ms" if v is not None else "—")
        lines = [
            f"open-loop load: {self.rate:g} req/s offered for "
            f"{self.duration:g}s across {self.tenants} tenant(s)",
            f"  sent {self.sent}  ok {self.ok}  rejected {self.rejected}  "
            f"failed {self.failed}",
            f"  latency p50 {fmt(lat['p50'])}  p95 {fmt(lat['p95'])}  "
            f"p99 {fmt(lat['p99'])}",
            f"  throughput {self.throughput_rps:.1f} req/s completed, "
            f"{self.coalesced} coalesced",
        ]
        if self.cache_mix:
            mix = ", ".join(f"{k}={v}" for k, v in sorted(self.cache_mix.items()))
            lines.append(f"  cache mix: {mix}")
        if self.errors:
            lines.append(f"  first errors: {'; '.join(self.errors[:3])}")
        return "\n".join(lines)


async def _coalesced_count(url: str, timeout: float) -> int:
    try:
        status, doc = await http_json("GET", url + "/metrics", timeout=timeout)
    except (OSError, ValueError, ConnectionError, asyncio.TimeoutError):
        return 0
    if status != 200 or not isinstance(doc, dict):
        return 0
    counters = doc.get("gateway", {}).get("counters", {})
    return int(counters.get("requests_coalesced", 0))


async def run_loadgen(config: LoadgenConfig) -> LoadReport:
    """Drive one open-loop run against a live gateway."""
    if not config.workload:
        raise ValueError("workload must contain at least one request body")
    url = config.url.rstrip("/")
    arrivals = poisson_arrivals(config.rate, config.duration, config.seed)
    coalesced_before = await _coalesced_count(url, config.timeout)

    latencies: List[float] = []
    outcomes = {"ok": 0, "rejected": 0, "failed": 0}
    cache_mix: Dict[str, int] = {}
    errors: List[str] = []

    async def fire(index: int, offset: float, start: float) -> None:
        delay = start + offset - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        body = dict(config.workload[index % len(config.workload)])
        body.setdefault("tenant", f"tenant-{index % max(1, config.tenants)}")
        t0 = time.monotonic()
        try:
            status, doc = await http_json(
                "POST", url + "/v1/factor", body, timeout=config.timeout
            )
        except (OSError, ValueError, ConnectionError,
                asyncio.TimeoutError) as exc:
            outcomes["failed"] += 1
            if len(errors) < 20:
                errors.append(f"{type(exc).__name__}: {exc}")
            return
        elapsed = time.monotonic() - t0
        if status in (200, 202):
            outcomes["ok"] += 1
            latencies.append(elapsed)
            if isinstance(doc, dict):
                source = doc.get("cache")
                if source:
                    cache_mix[source] = cache_mix.get(source, 0) + 1
        elif status == 429:
            outcomes["rejected"] += 1
        else:
            outcomes["failed"] += 1
            if len(errors) < 20:
                detail = doc.get("error") if isinstance(doc, dict) else None
                errors.append(f"HTTP {status}: {detail}")

    start = time.monotonic()
    tasks = [
        asyncio.ensure_future(fire(i, offset, start))
        for i, offset in enumerate(arrivals)
    ]
    if tasks:
        done, pending = await asyncio.wait(
            tasks, timeout=config.duration + config.drain_timeout
        )
        for task in pending:  # stragglers past the drain window
            task.cancel()
            outcomes["failed"] += 1
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
    wall = time.monotonic() - start

    coalesced_after = await _coalesced_count(url, config.timeout)
    latencies.sort()
    to_ms = (lambda v: v * 1000.0 if v is not None else None)
    return LoadReport(
        rate=config.rate,
        duration=config.duration,
        sent=len(arrivals),
        ok=outcomes["ok"],
        rejected=outcomes["rejected"],
        failed=outcomes["failed"],
        latencies_ms={
            "p50": to_ms(percentile(latencies, 50)),
            "p95": to_ms(percentile(latencies, 95)),
            "p99": to_ms(percentile(latencies, 99)),
        },
        throughput_rps=outcomes["ok"] / wall if wall > 0 else 0.0,
        cache_mix=cache_mix,
        coalesced=max(0, coalesced_after - coalesced_before),
        tenants=config.tenants,
        errors=errors,
    )
