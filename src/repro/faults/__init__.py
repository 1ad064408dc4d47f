"""Deterministic fault injection & recovery (chaos layer).

``repro.faults`` turns the simulated multiprocessor into a crash-test
rig: a frozen :class:`FaultPlan` schedules processor crashes, slowdowns,
message drops, corruption and duplication; the
:class:`FaultInjector` replays it deterministically while the machine
and the three parallel algorithms detect and recover.  Everything is off
by default — no plan (or an empty one) is byte-identical to the
fault-free path — and every injected fault / recovery action lands in an
event log and, when tracing, as ``fault:*``/``recovery:*`` spans.

Entry points::

    from repro.faults import FaultPlan, FaultInjector

    plan = FaultPlan.parse("crash:1@3,drop:5")      # or .random_single(seed, nprocs)
    inj = FaultInjector(plan, seed=0)
    run = lshaped_kernel_extract(net, nprocs=4, faults=inj)
    inj.summary()                                    # injected vs recovered

or from the command line: ``python -m repro chaos CIRCUIT --plan ...
--algorithm lshaped`` wraps the whole story in one command.  No
environment variable injects machine faults; a run without ``faults=``
is fault-free.
"""

from repro.faults.injector import (
    FaultInjector,
    FaultRecord,
    note_control_resync,
)
from repro.faults.journal import ExtractionJournal, JournalEntry
from repro.faults.plan import (
    ALL_FAULT_KINDS,
    FAULT_KINDS,
    SERVE_FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    resolve_fault_injector,
    serve_plan_from_env,
)

__all__ = [
    "ALL_FAULT_KINDS",
    "FAULT_KINDS",
    "SERVE_FAULT_KINDS",
    "ExtractionJournal",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultRecord",
    "JournalEntry",
    "note_control_resync",
    "resolve_fault_injector",
    "serve_plan_from_env",
]
