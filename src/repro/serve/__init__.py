"""``repro.serve`` — the multi-process async serving tier.

The batch engine (:mod:`repro.service`) runs many jobs well inside one
process; this package puts an actual serving stack in front of the same
substrate, using nothing beyond the stdlib:

- :mod:`~repro.serve.gateway` — asyncio HTTP/JSON gateway: dispatch
  to the least-loaded worker, request coalescing, per-tenant
  token-bucket rate limits, bounded in-flight admission control, job
  registry with streaming status, crash-detected worker respawn with
  re-dispatch;
- :mod:`~repro.serve.worker` — N worker *processes* (one
  :class:`~repro.service.engine.FactorizationEngine` each — real
  parallelism, not GIL-shared threads) speaking a small pipe protocol;
- :mod:`~repro.serve.router` — the per-tenant token buckets;
- :mod:`~repro.serve.diskcache` — the versioned persistent result
  cache every worker shares (atomic-rename writers, warm restart, byte
  budget with LRU eviction, memory-only degradation on disk failure);
- :mod:`~repro.serve.durability` — the write-ahead job journal the
  gateway replays after a crash, plus ``repro fsck``;
- :mod:`~repro.serve.chaos` — the serve-level chaos harness behind
  ``repro chaos --serve`` (process faults against a real instance);
- :mod:`~repro.serve.protocol` — request validation, canonical cache
  keys (reusing :func:`repro.service.cache.canonical_job_key`), result
  documents;
- :mod:`~repro.serve.loadgen` — the open-loop Poisson load generator.

Entry points: ``python -m repro serve [--workers N --port P
--cache-dir D]`` and ``python -m repro loadgen URL [--rate R
--duration S --tenants K]``.
"""

from repro.serve.diskcache import CACHE_SCHEMA, DiskCache
from repro.serve.durability import (
    JOURNAL_SCHEMA,
    JobJournal,
    JournalReplay,
    fsck_scan,
    render_fsck_report,
)
from repro.serve.gateway import (
    Gateway,
    GatewayConfig,
    LoadShed,
    Overloaded,
    RateLimited,
    ShardFailing,
)
from repro.serve.loadgen import (
    LoadgenConfig,
    LoadReport,
    load_workload_file,
    poisson_arrivals,
    probe_circuit_eqn,
    run_loadgen,
)
from repro.serve.protocol import BadRequest, job_cache_key, parse_job_request
from repro.serve.router import TenantRateLimiter, TokenBucket
from repro.serve.top import render_top, run_top
from repro.serve.worker import WorkerHandle, worker_main

__all__ = [
    "BadRequest",
    "CACHE_SCHEMA",
    "DiskCache",
    "Gateway",
    "GatewayConfig",
    "JOURNAL_SCHEMA",
    "JobJournal",
    "JournalReplay",
    "LoadReport",
    "LoadShed",
    "LoadgenConfig",
    "Overloaded",
    "RateLimited",
    "ShardFailing",
    "TenantRateLimiter",
    "TokenBucket",
    "WorkerHandle",
    "fsck_scan",
    "job_cache_key",
    "load_workload_file",
    "parse_job_request",
    "poisson_arrivals",
    "probe_circuit_eqn",
    "render_fsck_report",
    "render_top",
    "run_loadgen",
    "run_top",
    "worker_main",
]
