"""Operational metrics: counters, bounded histograms, timers, registry.

This is the engine/cache metrics layer, part of :mod:`repro.obs` so span
traces and engine metrics export through one :func:`repro.obs.snapshot`
schema.

The one behavioral change from the service-era module: :class:`Histogram`
no longer keeps every sample.  It stores samples exactly up to a cap and
then switches to reservoir sampling (Vitter's Algorithm R with a
name-seeded deterministic RNG), so observing a million values holds a
fixed-size buffer while ``count``/``total``/``min``/``max`` — and hence
``mean`` — stay exact.  Percentiles over a full buffer are exact;
past the cap they are unbiased estimates from the reservoir.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from typing import Dict, List, Optional

__all__ = ["Counter", "Histogram", "Timer", "MetricsRegistry",
           "DEFAULT_HISTOGRAM_CAP", "SNAPSHOT_SAMPLE_CAP",
           "health_snapshot", "merge_snapshots"]

#: Samples kept exactly before reservoir sampling begins.  Batch runs
#: observe at most a few thousand values, so in practice percentiles
#: remain exact; the cap only matters for pathological volumes.
DEFAULT_HISTOGRAM_CAP = 4096

#: Samples shipped per histogram in a snapshot (``repro.obs/2``) so
#: cross-process merges can re-derive percentiles from pooled data.
#: Even-stride downsampling of the reservoir keeps the wire cost a few
#: KB per histogram while staying a representative subsample.
SNAPSHOT_SAMPLE_CAP = 256


class Counter:
    """A monotonically increasing named count."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class Histogram:
    """Streaming distribution with bounded memory.

    The first ``cap`` observations are stored exactly.  From observation
    ``cap + 1`` on, Algorithm R replaces a uniformly random slot with
    probability ``cap / n``, keeping the buffer a uniform sample of
    everything seen.  The RNG is seeded from the histogram name, so two
    runs observing the same stream produce the same summary.

    ``count``, ``total``, ``min`` and ``max`` are maintained as scalars
    outside the buffer and are exact regardless of volume.
    """

    def __init__(self, name: str, cap: int = DEFAULT_HISTOGRAM_CAP):
        if cap < 1:
            raise ValueError(f"histogram cap must be >= 1, got {cap}")
        self.name = name
        self.cap = cap
        self._samples: List[float] = []
        self._count = 0
        self._total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._total += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            if len(self._samples) < self.cap:
                self._samples.append(value)
            else:
                slot = self._rng.randrange(self._count)
                if slot < self.cap:
                    self._samples[slot] = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._total

    @property
    def sample_size(self) -> int:
        """Values currently buffered (== count until the cap is hit)."""
        with self._lock:
            return len(self._samples)

    def percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile, ``p`` in [0, 100]; None when empty.

        Exact while ``count <= cap``; estimated from the reservoir after.
        """
        with self._lock:
            if not self._samples:
                return None
            ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1, round(p / 100.0 * (len(ordered) - 1))))
        return ordered[int(rank)]

    def summary(self) -> Dict[str, Optional[float]]:
        with self._lock:
            samples = list(self._samples)
            count = self._count
            total = self._total
            lo = self._min
            hi = self._max
        if not count:
            return {"count": 0, "total": 0.0, "min": None, "max": None,
                    "mean": None, "p50": None, "p95": None}
        ordered = sorted(samples)
        n = len(ordered)

        def nearest(p: float) -> float:
            return ordered[max(0, min(n - 1, int(round(p / 100.0 * (n - 1)))))]

        return {
            "count": count,
            "total": total,
            "min": lo,
            "max": hi,
            "mean": total / count,
            "p50": nearest(50),
            "p95": nearest(95),
        }

    def sample_subset(self, limit: int = SNAPSHOT_SAMPLE_CAP) -> List[float]:
        """An even-stride subsample of the buffered values (sorted).

        The buffer is already a uniform sample of the full stream, and
        an even stride over sorted data preserves its quantiles, so this
        is what snapshots ship for cross-process percentile merges.
        """
        with self._lock:
            samples = sorted(self._samples)
        if len(samples) <= limit:
            return samples
        n = len(samples)
        return [samples[(i * (n - 1)) // (limit - 1)] for i in range(limit)]


def health_snapshot(registry: "MetricsRegistry") -> Dict[str, object]:
    """The engine's health document: its nonzero job counters."""
    return {"counters": registry.health_keys()}


def _pooled_samples(doc: Dict) -> List[tuple]:
    """(value, weight) pairs representing one histogram snapshot entry.

    ``repro.obs/2`` entries ship real ``samples``; each carries weight
    ``count / len(samples)`` so pooled percentiles respect volume.  For
    a legacy ``repro.obs/1`` entry (summary only) we fall back to a
    coarse three-point sketch — (p50, 70%), (p95, 25%), (max, 5%) of the
    count — which keeps old worker snapshots mergeable at reduced
    fidelity instead of rejecting them.
    """
    count = doc.get("count") or 0
    if not count:
        return []
    samples = doc.get("samples")
    if samples:
        weight = count / len(samples)
        return [(float(v), weight) for v in samples]
    out = []
    for key, share in (("p50", 0.70), ("p95", 0.25), ("max", 0.05)):
        value = doc.get(key)
        if value is not None:
            out.append((float(value), count * share))
    return out


def _weighted_percentile(pairs: List[tuple], p: float) -> Optional[float]:
    if not pairs:
        return None
    pairs = sorted(pairs)
    total = sum(w for _, w in pairs)
    target = total * p / 100.0
    acc = 0.0
    for value, weight in pairs:
        acc += weight
        if acc >= target:
            return value
    return pairs[-1][0]


def merge_snapshots(snaps: List[Dict]) -> Dict[str, Dict]:
    """Merge per-process registry snapshots into one cluster view.

    Counters sum; histogram ``count``/``total``/``min``/``max`` (and so
    ``mean``) merge exactly; percentiles come from the pooled weighted
    samples each snapshot ships (``repro.obs/2``), degrading gracefully
    for sample-less legacy entries.  Input docs are the shape
    :meth:`MetricsRegistry.snapshot` produces (``{"counters",
    "histograms"}``); empty/None entries are skipped.
    """
    counters: Dict[str, int] = {}
    pooled: Dict[str, Dict] = {}
    for snap in snaps:
        if not snap:
            continue
        for name, value in (snap.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, doc in (snap.get("histograms") or {}).items():
            count = doc.get("count") or 0
            if not count:
                continue
            agg = pooled.setdefault(
                name,
                {"count": 0, "total": 0.0, "min": None, "max": None,
                 "pairs": []},
            )
            agg["count"] += count
            agg["total"] += doc.get("total") or 0.0
            for key, better in (("min", min), ("max", max)):
                value = doc.get(key)
                if value is not None:
                    agg[key] = value if agg[key] is None else better(agg[key], value)
            agg["pairs"].extend(_pooled_samples(doc))
    histograms: Dict[str, Dict] = {}
    for name, agg in sorted(pooled.items()):
        pairs = agg.pop("pairs")
        agg["mean"] = agg["total"] / agg["count"] if agg["count"] else None
        agg["p50"] = _weighted_percentile(pairs, 50)
        agg["p95"] = _weighted_percentile(pairs, 95)
        agg["p99"] = _weighted_percentile(pairs, 99)
        histograms[name] = agg
    return {
        "counters": {k: counters[k] for k in sorted(counters)},
        "histograms": histograms,
    }


class Timer:
    """Context manager feeding elapsed wall-clock seconds to a histogram.

    ::

        with registry.timer("job"):
            run_job()          # observes into histogram "job_seconds"
    """

    def __init__(self, histogram: Histogram):
        self.histogram = histogram
        self._start: Optional[float] = None
        self.elapsed: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        assert self._start is not None
        self.elapsed = time.perf_counter() - self._start
        self.histogram.observe(self.elapsed)


class MetricsRegistry:
    """Get-or-create registry of counters/histograms with one snapshot."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.RLock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name)
            return self._counters[name]

    def histogram(self, name: str, cap: int = DEFAULT_HISTOGRAM_CAP) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name, cap=cap)
            return self._histograms[name]

    def timer(self, name: str) -> Timer:
        """A fresh timer observing into histogram ``{name}_seconds``."""
        return Timer(self.histogram(f"{name}_seconds"))

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-serializable dump of every metric at this instant.

        Since ``repro.obs/2`` each histogram entry carries a bounded
        ``samples`` list (see :meth:`Histogram.sample_subset`) alongside
        the scalar summary, so snapshots from different processes can be
        merged with honest pooled percentiles.
        """
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        hist_docs: Dict[str, Dict] = {}
        for name, h in sorted(histograms.items()):
            doc = h.summary()
            doc["samples"] = h.sample_subset()
            hist_docs[name] = doc
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "histograms": hist_docs,
        }

    def health_keys(self) -> Dict[str, int]:
        """The counter values health reporting cares about (job
        outcomes); zero-valued keys are omitted."""
        with self._lock:
            counters = dict(self._counters)
        wanted = (
            "jobs_submitted", "jobs_completed", "jobs_failed",
            "jobs_degraded",
        )
        return {k: counters[k].value for k in wanted
                if k in counters and counters[k].value}

    def render(self) -> str:
        """Human-readable one-metric-per-line dump for CLI output."""
        snap = self.snapshot()
        lines = []
        for name, value in snap["counters"].items():
            lines.append(f"{name:<28} {value}")
        for name, summ in snap["histograms"].items():
            if not summ["count"]:
                continue
            lines.append(
                f"{name:<28} count={summ['count']} total={summ['total']:.3f}s "
                f"mean={summ['mean']:.3f}s p95={summ['p95']:.3f}s"
            )
        return "\n".join(lines)
