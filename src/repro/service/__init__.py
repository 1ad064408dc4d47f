"""Batch factorization serving layer.

The paper measures factorization as ~61% of synthesis runtime (Table 1)
and its three parallel algorithms trade quality for speed differently
per circuit — which makes a serving layer that schedules many circuits
and degrades gracefully the natural next tier above the algorithm
substrate.  This package provides it:

- :mod:`~repro.service.jobs` — job/result models and the
  PENDING/RUNNING/DONE/FAILED lifecycle;
- :mod:`~repro.service.engine` — :class:`FactorizationEngine`: runs
  jobs one after another under their node budgets, with one
  exhaustive→ping-pong degrade step (the paper's DNF rows, served);
- :mod:`~repro.service.cache` — the canonical job digest and the
  content-addressed LRU that the serving tier's gateway answers
  repeated requests from (the engine itself memoizes nothing).

Metrics (counters/timers/histograms) come from :mod:`repro.obs.metrics`.

Entry points: ``python -m repro batch MANIFEST`` runs a manifest through
the engine, and every ``repro serve`` worker process runs one engine.
"""

from repro.obs.metrics import Counter, Histogram, MetricsRegistry, Timer
from repro.service.cache import ResultCache, canonical_job_key, canonical_network_text
from repro.service.engine import BatchReport, FactorizationEngine, SequentialRun
from repro.service.jobs import FactorizationJob, JobResult, JobStatus

__all__ = [
    "BatchReport",
    "Counter",
    "FactorizationEngine",
    "FactorizationJob",
    "Histogram",
    "JobResult",
    "JobStatus",
    "MetricsRegistry",
    "ResultCache",
    "SequentialRun",
    "Timer",
    "canonical_job_key",
    "canonical_network_text",
]
