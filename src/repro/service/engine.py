"""The batch factorization engine: one attempt, one degrade.

:class:`FactorizationEngine` is the serving layer on top of the
algorithm substrate (:mod:`repro.rectangles`, :mod:`repro.parallel`).
It runs :class:`~repro.service.jobs.FactorizationJob`\\ s one after
another on the calling thread, enforcing each job's rectangle-search
node budget.  Mirroring the paper's DNF rows, a job whose search blows
its budget *degrades* instead of dying: it runs once more, at once, on
the cheap fallback (exhaustive search → ping-pong, replicated →
sequential ping-pong), trading quality for an answer.  Any other
failure fails the job after its one attempt: every algorithm and fault
plan is deterministic in its inputs, so running the same job again
could only fail the same way.

The engine memoizes nothing and keeps no state across jobs but its
metrics: every job is computed, and no job's outcome affects another.
Repeated requests are answered in front of it, by the serving tier's
gateway LRU and its durable disk cache (:mod:`repro.serve`).  All
activity feeds one :class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro import obs as _obs
from repro.network.boolean_network import BooleanNetwork
from repro.obs.metrics import MetricsRegistry, health_snapshot
from repro.rectangles.cover import KernelExtractionResult, kernel_extract
from repro.rectangles.search import BudgetExceeded, SearchBudget
from repro.service.jobs import FactorizationJob, JobResult, JobStatus

__all__ = [
    "SequentialRun",
    "BatchReport",
    "FactorizationEngine",
]


@dataclass
class SequentialRun:
    """Payload of a sequential job: the run record plus the network."""

    result: KernelExtractionResult
    network: BooleanNetwork

    @property
    def initial_lc(self) -> int:
        return self.result.initial_lc

    @property
    def final_lc(self) -> int:
        return self.result.final_lc


@dataclass
class BatchReport:
    """Everything one batch run produced, renderable for the CLI."""

    results: List[JobResult]
    wall_time: float
    metrics: Dict[str, Dict] = field(default_factory=dict)

    @property
    def done(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def failed(self) -> int:
        return len(self.results) - self.done

    def to_dict(self) -> Dict[str, Any]:
        return {
            "results": [r.to_dict() for r in self.results],
            "wall_time": self.wall_time,
            "metrics": self.metrics,
        }

    def render(self) -> str:
        header = (
            f"{'job':<10} {'circuit':<12} {'algorithm':<12} {'procs':>5} "
            f"{'status':<8} {'attempts':>8} {'lits':<14} {'time':>8}"
        )
        lines = [header, "-" * len(header)]
        for r in self.results:
            lits = (
                f"{r.initial_lc} -> {r.final_lc}"
                if r.initial_lc is not None and r.final_lc is not None
                else "—"
            )
            status = str(r.status) + ("*" if r.degraded else "")
            lines.append(
                f"{r.job_id:<10} {r.circuit:<12} {r.algorithm:<12} {r.procs:>5} "
                f"{status:<8} {r.attempts:>8} "
                f"{lits:<14} {r.elapsed:>7.3f}s"
            )
        lines.append(
            f"{self.done}/{len(self.results)} done ({self.failed} failed) "
            f"in {self.wall_time:.3f}s"
        )
        if any(r.degraded for r in self.results):
            lines.append("* = degraded to the ping-pong heuristic (node budget)")
        return "\n".join(lines)


class FactorizationEngine:
    """Sequential job runner with exhaustive→ping-pong degradation.

    Jobs run on the calling thread; one engine serves one thread at a
    time (a serve worker's compute thread, or ``repro batch``).
    """

    def __init__(self):
        self.metrics = MetricsRegistry()
        self._next_id = 0

    def execute(self, job: FactorizationJob) -> JobResult:
        """Run one job on the calling thread."""
        self._submit(job)
        return self._run_job(job)

    def run_batch(self, jobs: List[FactorizationJob]) -> BatchReport:
        """Run *jobs* one after another in ``priority`` order (lower
        first, ties in submission order) and assemble a report."""
        with self.metrics.timer("batch") as timer:
            for job in jobs:
                self._submit(job)
            ordered = sorted(jobs, key=lambda job: job.priority)
            results = [self._run_job(job) for job in ordered]
        return BatchReport(
            results=results,
            wall_time=timer.elapsed or 0.0,
            metrics=self.metrics.snapshot(),
        )

    def health(self) -> Dict[str, Any]:
        """Health counters plus the process-wide rectangle-search
        pruning counters, which the serving tier aggregates into
        ``/metrics``."""
        from repro.rectangles.memo import rect_search_snapshot

        doc = health_snapshot(self.metrics)
        doc["rect_search"] = rect_search_snapshot()
        return doc

    # ------------------------------------------------------------------
    # the job lifecycle
    # ------------------------------------------------------------------

    def _submit(self, job: FactorizationJob) -> None:
        if not job.job_id:
            job.job_id = f"job-{self._next_id:04d}"
            self._next_id += 1
        self.metrics.inc("jobs_submitted")

    def _result_for(self, job: FactorizationJob, **kw) -> JobResult:
        return JobResult(
            job_id=job.job_id,
            circuit=job.circuit or (job.network.name if job.network else "?"),
            algorithm=job.algorithm,
            procs=job.procs,
            status=job.status,
            attempts=job.attempts,
            degraded=job.degraded,
            error=job.error,
            **kw,
        )

    def _run_job(self, job: FactorizationJob) -> JobResult:
        # Trace context: every span opened while this job runs — machine
        # phases, rectangle-search counters, the degrade step — carries
        # the job id and lands on the job's track, so a batch trace
        # separates jobs end-to-end.
        with _obs.context(
            track=f"job:{job.job_id}",
            job_id=job.job_id,
            circuit=job.circuit or (job.network.name if job.network else "?"),
            algorithm=job.algorithm,
        ):
            with _obs.span("job", cat="service"):
                return self._run_job_traced(job)

    def _run_job_traced(self, job: FactorizationJob) -> JobResult:
        start = time.perf_counter()
        while True:
            job.attempts += 1
            job.status = JobStatus.RUNNING
            self.metrics.inc("jobs_attempts")
            try:
                payload = self._dispatch(job, job.resolve_network())
                break
            except Exception as exc:  # noqa: BLE001 - lifecycle boundary
                job.error = f"{type(exc).__name__}: {exc}"
                self.metrics.inc("jobs_failed_attempts")
                if isinstance(exc, BudgetExceeded):
                    self.metrics.inc("jobs_budget_exceeded")
                    if _degrade(job):
                        self.metrics.inc("jobs_retries")
                        continue
                job.status = JobStatus.FAILED
                self.metrics.inc("jobs_failed")
                return self._result_for(
                    job, elapsed=time.perf_counter() - start, exception=exc,
                )
        job.error = None
        job.status = JobStatus.DONE
        self.metrics.inc("jobs_completed")
        if job.degraded:
            self.metrics.inc("jobs_degraded")
        elapsed = time.perf_counter() - start
        self.metrics.histogram("job_seconds").observe(elapsed)
        return self._result_for(
            job,
            elapsed=elapsed,
            initial_lc=getattr(payload, "initial_lc", None),
            final_lc=getattr(payload, "final_lc", None),
            payload=payload,
        )

    # ------------------------------------------------------------------
    # one attempt
    # ------------------------------------------------------------------

    def _dispatch(self, job: FactorizationJob, network: BooleanNetwork):
        params = dict(job.params)
        if job.algorithm == "sequential":
            work = network.copy()
            budget = (
                SearchBudget(job.node_budget)
                if job.node_budget is not None and job.searcher == "exhaustive"
                else None
            )
            result = kernel_extract(
                work, searcher=job.searcher, budget=budget,
                max_seeds=params.pop("max_seeds", 64), **params,
            )
            return SequentialRun(result=result, network=work)
        if job.algorithm == "baseline":
            from repro.parallel.common import sequential_baseline

            return sequential_baseline(
                network, searcher=job.searcher,
                max_seeds=params.pop("max_seeds", 64),
            )
        if job.algorithm == "replicated":
            from repro.parallel.replicated import replicated_kernel_extract

            if job.node_budget is not None:
                params.setdefault("search_budget", job.node_budget)
            return replicated_kernel_extract(network, job.procs, **params)
        if job.algorithm == "independent":
            from repro.parallel.independent import independent_kernel_extract

            return independent_kernel_extract(network, job.procs, **params)
        if job.algorithm == "lshaped":
            from repro.parallel.lshaped import lshaped_kernel_extract

            return lshaped_kernel_extract(network, job.procs, **params)
        raise ValueError(f"unknown algorithm {job.algorithm!r}")


def _degrade(job: FactorizationJob) -> bool:
    """Swap in the cheap fallback after a node-budget failure.

    Returns False when *job* may not degrade (``allow_degrade`` unset,
    already degraded, or no cheaper path).  The fallback drops the node
    budget: graceful degradation promises *an* answer, and the ping-pong
    heuristic terminates on every circuit the suite contains.
    """
    if not job.allow_degrade or job.degraded:
        return False
    if job.algorithm == "replicated":
        # The replicated algorithm *is* the exhaustive search; its
        # fallback is the sequential SIS loop (paper: the DNF rows).
        job.algorithm, job.searcher, job.procs = "sequential", "pingpong", 1
    elif job.searcher == "exhaustive":
        job.searcher = "pingpong"
    else:
        return False
    job.node_budget = None
    job.degraded = True
    return True
