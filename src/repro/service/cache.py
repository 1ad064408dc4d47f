"""Content-addressed LRU cache for factorization results.

Keys are a SHA-256 over the *canonical* form of everything that
determines a result: the network's sorted equation text (so node
insertion order and network name don't matter) plus a sorted-key JSON
encoding of (algorithm, procs, search parameters).  Two requests that
would compute the same answer therefore share one entry, in the serving
gateway's in-memory LRU (:class:`ResultCache`) and in the durable
:class:`~repro.serve.diskcache.DiskCache` alike.

Deadlines, priorities and retry limits are deliberately *excluded* from
the key — they shape how a result is computed, never what it is.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

from repro.network.boolean_network import BooleanNetwork
from repro.obs.metrics import MetricsRegistry

__all__ = ["canonical_network_text", "canonical_job_key", "ResultCache"]

_MISSING = object()


def canonical_network_text(network: BooleanNetwork) -> str:
    """Order-independent textual form of a network's logic.

    Serializes to equation format, drops the name comment, and sorts the
    statement lines: networks with identical inputs/outputs/node
    expressions hash equal regardless of construction order.
    """
    from repro.network.eqn import write_eqn

    lines = [ln for ln in write_eqn(network).splitlines()
             if ln and not ln.startswith("#")]
    return "\n".join(sorted(lines))


def canonical_job_key(
    network: BooleanNetwork,
    algorithm: str,
    procs: int,
    params: Optional[Dict[str, Any]] = None,
    searcher: str = "pingpong",
    node_budget: Optional[int] = None,
) -> str:
    """Stable hex digest identifying one (network, computation) pair."""
    spec = {
        "algorithm": algorithm,
        "procs": procs if algorithm not in ("sequential", "baseline") else 1,
        "searcher": searcher,
        "node_budget": node_budget,
        "params": {k: params[k] for k in sorted(params)} if params else {},
    }
    h = hashlib.sha256()
    h.update(canonical_network_text(network).encode())
    h.update(b"\x00")
    h.update(json.dumps(spec, sort_keys=True, default=repr).encode())
    return h.hexdigest()


class ResultCache:
    """Thread-safe LRU mapping canonical job keys to result payloads.

    Hit/miss/eviction counts feed the shared :class:`MetricsRegistry`
    (``cache_hits`` / ``cache_misses`` / ``cache_evictions``) and are
    also kept as plain attributes for direct inspection.
    """

    def __init__(self, capacity: int = 256,
                 metrics: Optional[MetricsRegistry] = None):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.metrics = metrics
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str) -> Any:
        """The cached payload, or None on miss (payloads are never None)."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                if self.metrics:
                    self.metrics.inc("cache_misses")
                return None
            self._data.move_to_end(key)
            self.hits += 1
        if self.metrics:
            self.metrics.inc("cache_hits")
        return value

    def put(self, key: str, value: Any) -> None:
        if value is None:
            raise ValueError("cannot cache None (None signals a miss)")
        evicted = 0
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if self.metrics and evicted:
            self.metrics.inc("cache_evictions", evicted)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "size": len(self),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }
