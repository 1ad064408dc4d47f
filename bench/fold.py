"""Fold span traces into per-layer self times, shares and closure.

A span's *self time* is its duration minus the part of its interval
that its child spans cover (the union of the children, clipped to the
parent).  Each span's self time is charged to one layer, named after the
module that does the work.  *Closure* is the summed self time of every
span divided by the end-to-end time the benchmark measured itself; it is
1 when the spans nest inside the measured interval without overlapping,
and the benchmark requires it within ±5%.

Spans are the JSONL dicts of :meth:`repro.obs.tracer.Span.to_dict` (in
process) or of a merged ``repro.trace/1`` request trace (served): ``id``,
optional ``parent``, ``name``, ``cat``, ``t0``/``t1`` in seconds, and,
in process, the virtual interval ``v0``/``v1``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Mapping

#: The four factorization phases, in the paper's Table 1 order.
PHASE_LAYERS = (
    "algebra.kernels",       # kernel-gen
    "rectangles.kcmatrix",   # kc-build
    "rectangles.search",     # rect-search
    "rectangles.cover",      # extract-commit
)

#: Layers reported as mean self milliseconds per job.  Every workload
#: runs each of them, so none of these reads zero.
TIMED_LAYERS = PHASE_LAYERS + ("entry",)

#: Layers reported as a share of end-to-end time.
SHARE_LAYERS = TIMED_LAYERS + (
    "partition",
    "machine",
    "serve.httpio",
    "serve.gateway",
    "serve.pipe",
    "serve.worker",
    "serve.diskcache",
)

LAYER_OF_NAME = {
    # Entry points: the call's own time outside every inner span.
    "bench-job": "entry",   # the benchmark's span around an in-process call
    "job": "entry",         # the service engine's job span
    "factor": "entry",      # independent's per-block extraction loop
    # Factorization phases (sequential loop and machine phase names).
    "kernel-gen": "algebra.kernels",
    "kernel-regen": "algebra.kernels",
    "kc-build": "rectangles.kcmatrix",
    "build-slab": "rectangles.kcmatrix",
    "relabel": "rectangles.kcmatrix",
    "rect-search": "rectangles.search",
    "search": "rectangles.search",
    "extract-commit": "rectangles.cover",
    "extract": "rectangles.cover",
    "drain": "rectangles.cover",
    "partition": "partition",
    # Serving tier.
    "client": "serve.httpio",   # the benchmark's span: send to full response
    "request": "serve.gateway",
    "cache-hit": "serve.gateway",
    "coalesce-join": "serve.gateway",
    "redispatch": "serve.gateway",
    "dispatch": "serve.pipe",   # pipe transit plus the shard's queue
    "worker-factor": "serve.worker",
    "disk-probe": "serve.diskcache",
}

#: Simulated-machine span categories (barriers, transfers, direct charges).
MACHINE_CATS = frozenset({"sync", "comm", "compute"})


def layer_of(span: Mapping) -> str:
    layer = LAYER_OF_NAME.get(span.get("name"))
    if layer is not None:
        return layer
    if span.get("cat") in MACHINE_CATS:
        return "machine"
    return "other"


def self_times(spans: List[Mapping]) -> Dict[object, float]:
    """Self seconds of every span, keyed by span id."""
    children: Dict[object, List[Mapping]] = defaultdict(list)
    for sp in spans:
        if sp.get("parent") is not None:
            children[sp["parent"]].append(sp)
    out: Dict[object, float] = {}
    for sp in spans:
        lo, hi = float(sp["t0"]), float(sp["t1"])
        pieces = sorted(
            (max(lo, float(c["t0"])), min(hi, float(c["t1"])))
            for c in children.get(sp["id"], ())
        )
        covered = 0.0
        end = lo
        for a, b in pieces:
            a = max(a, end)
            if b > a:
                covered += b - a
                end = b
        out[sp["id"]] = (hi - lo) - covered
    return out


def _virtual(span: Mapping) -> float:
    v0, v1 = span.get("v0"), span.get("v1")
    return (v1 - v0) if v0 is not None and v1 is not None else 0.0


class Fold:
    """Accumulates traced jobs; :meth:`metrics` gives the layer table.

    *weight* lets a sampled job stand for several (the warm workload
    fetches a stride sample of its cache hits); *scale* converts the
    job's measured seconds to reference-speed seconds (see
    :class:`common.Speed`).
    """

    def __init__(self) -> None:
        self.layer_s: Dict[str, float] = defaultdict(float)
        self.e2e_s = 0.0
        self.jobs = 0.0
        # Sequential-loop spans carry the cost model's virtual clock.
        self.seq_virtual: Dict[str, float] = defaultdict(float)
        self.seq_host: Dict[str, float] = defaultdict(float)
        self.machine_virtual = 0.0
        self.machine_sync_virtual = 0.0

    def add(self, spans: List[Mapping], e2e_s: float, weight: float = 1.0,
            scale: float = 1.0) -> None:
        selfs = self_times(spans)
        for sp in spans:
            layer = layer_of(sp)
            own = weight * scale * selfs[sp["id"]]
            self.layer_s[layer] += own
            cat = sp.get("cat")
            if cat == "seq" and layer in PHASE_LAYERS:
                self.seq_virtual[layer] += weight * _virtual(sp)
                self.seq_host[layer] += own
            elif cat == "phase" or cat in MACHINE_CATS:
                v = weight * _virtual(sp)
                self.machine_virtual += v
                if cat in ("sync", "comm"):
                    self.machine_sync_virtual += v
        self.e2e_s += weight * scale * e2e_s
        self.jobs += weight

    def closure(self) -> float:
        return sum(self.layer_s.values()) / self.e2e_s if self.e2e_s else 0.0

    def cost_model_max_dev(self) -> float:
        """Largest |virtual share - host share| over the four phases of
        the sequential extraction loop (0 when no such spans ran)."""
        v_total = sum(self.seq_virtual.values())
        h_total = sum(self.seq_host.values())
        if not v_total or not h_total:
            return 0.0
        return max(abs(self.seq_virtual[l] / v_total - self.seq_host[l] / h_total)
                   for l in PHASE_LAYERS)

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        jobs = self.jobs or 1.0
        e2e = self.e2e_s or 1.0
        for layer in TIMED_LAYERS:
            out[f"{layer}.ms"] = 1e3 * self.layer_s[layer] / jobs
        for layer in SHARE_LAYERS:
            out[f"{layer}.share"] = self.layer_s[layer] / e2e
        out["closure"] = self.closure()
        out["machine.cost_model_max_dev"] = self.cost_model_max_dev()
        out["machine.sync_share"] = (
            self.machine_sync_virtual / self.machine_virtual
            if self.machine_virtual else 0.0
        )
        return out


def merge_counts(spans: Iterable[Mapping], kinds: Iterable[str]) -> Dict[str, float]:
    """Sum cost-meter counters of *kinds* over simulated-machine spans.

    Machine phase spans carry the meter delta their processor charged,
    so their counters total the run's metered work.
    """
    kinds = set(kinds)
    out: Dict[str, float] = defaultdict(float)
    for sp in spans:
        if sp.get("cat") == "phase" or sp.get("cat") == "compute":
            for kind, amount in (sp.get("counters") or {}).items():
                if kind in kinds:
                    out[kind] += amount
    return dict(out)
