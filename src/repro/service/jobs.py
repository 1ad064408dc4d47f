"""Job and result models for the batch factorization engine.

A :class:`FactorizationJob` describes one unit of serving work — factor
this circuit with this algorithm under this node budget — plus the
state the engine leaves on it: ``status`` (PENDING → RUNNING → DONE or
FAILED), ``attempts`` and ``degraded``.  Those three say how a job
ended: a job that blew its node budget and degraded to the ping-pong
heuristic (the paper's DNF rows) is DONE with two attempts and
``degraded`` set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.network.boolean_network import BooleanNetwork

__all__ = ["JobStatus", "FactorizationJob", "JobResult"]

#: Algorithms a job may request.  "baseline" is the metered sequential
#: SIS run the speedup tables divide by.
ALGORITHMS = (
    "sequential", "baseline", "replicated", "independent", "lshaped",
)


class JobStatus(enum.Enum):
    PENDING = "PENDING"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"

    def __str__(self) -> str:
        return self.value


@dataclass
class FactorizationJob:
    """One factorization request plus its mutable lifecycle state.

    Exactly one of *circuit* (a name/path resolvable by
    :func:`repro.circuits.load_circuit`) or *network* must be provided.
    ``node_budget`` caps the rectangle-search tree (the paper's DNF
    mechanism).  When it trips and ``allow_degrade`` is set, the job
    runs once more on the cheap fallback: exhaustive rectangle search →
    ping-pong, replicated → sequential ping-pong.  ``priority`` orders
    :meth:`~repro.service.engine.FactorizationEngine.run_batch` (lower
    first).
    """

    circuit: str = ""
    algorithm: str = "sequential"
    procs: int = 1
    searcher: str = "pingpong"
    scale: float = 1.0
    priority: int = 0
    node_budget: Optional[int] = None
    allow_degrade: bool = True
    params: Dict[str, Any] = field(default_factory=dict)
    network: Optional[BooleanNetwork] = None

    # --- engine-managed state ---
    job_id: str = ""
    status: JobStatus = JobStatus.PENDING
    attempts: int = 0
    degraded: bool = False
    error: Optional[str] = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of "
                f"{', '.join(ALGORITHMS)}"
            )

    def resolve_network(self) -> BooleanNetwork:
        """The network to factor — the attached one or a loaded circuit."""
        if self.network is None:
            from repro.circuits import load_circuit

            self.network = load_circuit(self.circuit, scale=self.scale)
        return self.network

    def describe(self) -> str:
        name = self.circuit or (self.network.name if self.network else "?")
        procs = "" if self.algorithm in ("sequential", "baseline") else f"@{self.procs}p"
        return f"{name}/{self.algorithm}{procs}"


@dataclass
class JobResult:
    """The engine's answer for one job — everything a report needs.

    ``payload`` is the underlying algorithm result
    (:class:`~repro.parallel.common.ParallelRunResult`,
    :class:`~repro.rectangles.cover.KernelExtractionResult` or
    :class:`~repro.parallel.common.SequentialBaseline`); ``exception``
    holds the error that failed a FAILED job so synchronous callers can
    re-raise it with the original type.
    """

    job_id: str
    circuit: str
    algorithm: str
    procs: int
    status: JobStatus
    attempts: int = 0
    degraded: bool = False
    elapsed: float = 0.0
    initial_lc: Optional[int] = None
    final_lc: Optional[int] = None
    error: Optional[str] = None
    payload: Any = None
    exception: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.status is JobStatus.DONE

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable summary (payload/exception omitted)."""
        return {
            "job_id": self.job_id,
            "circuit": self.circuit,
            "algorithm": self.algorithm,
            "procs": self.procs,
            "status": self.status.value,
            "attempts": self.attempts,
            "degraded": self.degraded,
            "elapsed": self.elapsed,
            "initial_lc": self.initial_lc,
            "final_lc": self.final_lc,
            "error": self.error,
        }

