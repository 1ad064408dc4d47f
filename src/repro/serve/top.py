"""``repro top`` — a live terminal dashboard over ``GET /metrics``.

Polls the gateway's JSON metrics document on an interval and renders a
one-screen operational summary: request/answer *rates* (derived from
counter deltas between polls, not lifetime totals), latency percentiles,
the answer-tier mix (gateway / coalesced / disk / computed),
per-worker liveness, and any SLO paths with warm burn rates.

The renderer is a pure function (``doc + previous doc + dt -> str``) so
tests can drive it with canned documents; only :func:`run_top` touches
the network or the clock.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional

from repro.serve.httpio import http_json

__all__ = ["render_top", "run_top"]

#: Answer tiers in cheapest-first order, as shown in the mix line.
TIERS = ("gateway", "coalesced", "disk", "computed")


def _rate(now: Dict[str, Any], prev: Optional[Dict[str, Any]],
          key: str, dt: float) -> Optional[float]:
    if prev is None or dt <= 0:
        return None
    delta = (now.get(key) or 0) - (prev.get(key) or 0)
    return max(0.0, delta / dt)


def _fmt_rate(value: Optional[float]) -> str:
    return f"{value:6.1f}/s" if value is not None else "    --  "


def _fmt_s(value: Optional[float]) -> str:
    return f"{value * 1000.0:7.1f}ms" if value is not None else "     -- "


def render_top(
    doc: Dict[str, Any],
    prev: Optional[Dict[str, Any]] = None,
    dt: float = 0.0,
) -> str:
    """Render one dashboard frame from a ``/metrics`` document."""
    counters = (doc.get("gateway") or {}).get("counters") or {}
    prev_counters = (
        (prev.get("gateway") or {}).get("counters") if prev else None
    )
    latency = doc.get("latency") or {}
    lines: List[str] = []

    total = counters.get("requests_total", 0)
    ok = counters.get("results_ok", 0)
    failed = counters.get("results_failed", 0)
    rejected = (counters.get("requests_rate_limited", 0)
                + counters.get("requests_overloaded", 0))
    lines.append(
        f"requests {total:>8}  "
        f"rate {_fmt_rate(_rate(counters, prev_counters, 'requests_total', dt))}  "
        f"ok {ok}  failed {failed}  rejected {rejected}  "
        f"redispatched {counters.get('requests_redispatched', 0)}"
    )
    lines.append(
        f"latency  p50 {_fmt_s(latency.get('p50'))}  "
        f"p95 {_fmt_s(latency.get('p95'))}  "
        f"p99 {_fmt_s(latency.get('p99'))}"
    )

    # Answer-tier mix: where completed requests were answered from.
    tier_counts = {
        "gateway": counters.get("results_from_gateway", 0),
        "coalesced": counters.get("requests_coalesced", 0),
        "disk": counters.get("results_from_disk", 0),
        "computed": counters.get("results_from_computed", 0),
    }
    answered = sum(tier_counts.values())
    if answered:
        mix = "  ".join(
            f"{tier} {tier_counts[tier]} "
            f"({100.0 * tier_counts[tier] / answered:.0f}%)"
            for tier in TIERS if tier_counts[tier]
        )
        lines.append(f"answers  {mix}")

    workers = doc.get("workers") or {}
    if workers:
        cells = []
        for wid, snap in sorted(workers.items()):
            mark = "up" if snap.get("alive") else "DOWN"
            extra = ""
            if snap.get("crashes"):
                extra = f" crashes={snap['crashes']}"
            cells.append(f"w{wid}:{mark} gen{snap.get('generation', '?')}{extra}")
        lines.append("workers  " + "  ".join(cells))

    slo_paths = ((doc.get("slo") or {}).get("paths") or {})
    for path, windows in sorted(slo_paths.items()):
        for window, burns in sorted(windows.items()):
            if burns.get("error_burn", 0) >= 1.0 or \
                    burns.get("latency_burn", 0) >= 1.0:
                lines.append(
                    f"slo      {path} [{window}] "
                    f"error burn {burns.get('error_burn', 0.0):.1f}x  "
                    f"latency burn {burns.get('latency_burn', 0.0):.1f}x"
                )

    cache = doc.get("cache") or {}
    if cache.get("hits") is not None or cache.get("size") is not None:
        lines.append(
            f"gw-cache size {cache.get('size', '?')}  "
            f"hits {cache.get('hits', 0)}  misses {cache.get('misses', 0)}"
        )
    return "\n".join(lines)


async def run_top(
    url: str,
    interval: float = 2.0,
    iterations: Optional[int] = None,
    out=None,
) -> int:
    """Poll ``<url>/metrics`` and redraw until interrupted.

    *iterations* bounds the number of frames (None = forever); *out*
    defaults to stdout.  Returns a process exit code.
    """
    import sys

    out = out or sys.stdout
    prev: Optional[Dict[str, Any]] = None
    prev_t = time.monotonic()
    n = 0
    while iterations is None or n < iterations:
        try:
            status, doc = await http_json("GET", url.rstrip("/") + "/metrics")
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            print(f"[top] {url}: {exc}", file=out)
            status, doc = 0, None
        now = time.monotonic()
        if status == 200 and isinstance(doc, dict):
            frame = render_top(doc, prev, now - prev_t)
            stamp = time.strftime("%H:%M:%S")
            print(f"--- repro top  {url}  {stamp} ---", file=out)
            print(frame, file=out, flush=True)
            prev, prev_t = doc, now
        elif status:
            print(f"[top] {url}/metrics -> HTTP {status}", file=out)
        n += 1
        if iterations is not None and n >= iterations:
            break
        await asyncio.sleep(interval)
    return 0
