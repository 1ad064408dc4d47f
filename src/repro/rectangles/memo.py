"""Cross-job canonical memo for exhaustive best-rectangle searches.

Repeated batch/serving workloads keep handing the searcher structurally
identical KC submatrices — the same circuit family resubmitted, the same
greedy-loop prefix re-run under a different algorithm, the replay of a
cached job under new parameters.  :class:`RectMemo` keys completed
``best_rectangle_exhaustive`` results by the matrix's canonical
signature (:meth:`~repro.rectangles.bitview.BitKCView.signature`), so a
repeat search is one hash lookup instead of a tree walk.

Exactness contract:

- only *completed* searches are stored (a :class:`~repro.rectangles.
  search.BudgetExceeded` run is not), together with the node count the
  pruned search spent;
- a hit replays that spend as one lump ``budget.spend(nodes)`` /
  ``meter.charge("search_node", nodes)``.  Budgets raise on exactly the
  same condition as the live search (the recorded search completed, so
  it crosses the cap iff ``nodes`` exceeds the remaining allowance) and
  meters — whose totals are all the simulated clocks ever read — end up
  charged identically, so memoized runs are budget/meter-exact;
- results are stored in dense *position* space and mapped back through
  the current view's sorted labels, so label-renamed resubmissions of
  the same structure hit.

The in-memory table is a bounded LRU (hits/misses/evictions counted,
mirroring the PR 1 service ``ResultCache``); an optional *backing* store
with the PR 6 ``DiskCache`` ``get``/``put`` protocol persists entries
across worker processes and restarts (``repro serve`` wires the shared
cache directory in under the :data:`MEMO_SCHEMA` namespace).

A process-wide default memo (``REPRO_RECT_MEMO``, default enabled;
``REPRO_RECT_MEMO_CAP`` bounds it) serves every search that does not
pass an explicit ``memo=`` — the engine and serving tiers read its
counters for ``/metrics``.  The module also owns the process-wide
pruning counters the v2 search reports
(``rect_search_pruned_subtrees`` / ``rect_search_dominance_skips``).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

#: Environment toggle for the process-default memo ("0" disables).
ENV_VAR = "REPRO_RECT_MEMO"

#: Environment override for the default memo's LRU capacity.
ENV_CAP = "REPRO_RECT_MEMO_CAP"

DEFAULT_CAPACITY = 4096

#: DiskCache schema namespace for persisted memo entries.
MEMO_SCHEMA = "repro-rectmemo/1"

#: The counter names exposed in ``repro profile`` output and /metrics.
COUNTER_NAMES = (
    "rect_search_pruned_subtrees",
    "rect_search_dominance_skips",
    "rect_memo_hits",
    "rect_memo_misses",
    "rect_memo_evictions",
)


class SearchStats:
    """Process-wide tally of the v2 search's pruning work."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.searches = 0
        self.pruned_subtrees = 0
        self.dominance_skips = 0

    def record(self, pruned: int, dominance: int) -> None:
        with self._lock:
            self.searches += 1
            self.pruned_subtrees += pruned
            self.dominance_skips += dominance

    def reset(self) -> None:
        with self._lock:
            self.searches = 0
            self.pruned_subtrees = 0
            self.dominance_skips = 0

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "searches": self.searches,
                "pruned_subtrees": self.pruned_subtrees,
                "dominance_skips": self.dominance_skips,
            }


GLOBAL_SEARCH_STATS = SearchStats()


class RectMemo:
    """Bounded LRU of completed best-rectangle results, optionally
    write-through to a persistent backing store."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY, backing=None) -> None:
        if capacity < 1:
            raise ValueError("RectMemo capacity must be >= 1")
        self.capacity = capacity
        self.backing = backing
        self._lock = threading.Lock()
        self._table: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored entry for *key*, or None; counts the outcome."""
        with self._lock:
            entry = self._table.get(key)
            if entry is not None:
                self._table.move_to_end(key)
                self.hits += 1
                return entry
        if self.backing is not None:
            doc = self.backing.get(key)
            if doc is not None:
                with self._lock:
                    self.hits += 1
                    self._install(key, doc)
                return doc
        with self._lock:
            self.misses += 1
        return None

    def store(self, key: str, entry: Dict[str, Any]) -> bool:
        """Insert an entry; returns True when an LRU eviction occurred."""
        evicted = False
        with self._lock:
            evicted = self._install(key, entry)
        if self.backing is not None:
            self.backing.put(key, entry)
        return evicted

    def _install(self, key: str, entry: Dict[str, Any]) -> bool:
        self._table[key] = entry
        self._table.move_to_end(key)
        evicted = False
        while len(self._table) > self.capacity:
            self._table.popitem(last=False)
            self.evictions += 1
            evicted = True
        return evicted

    def clear(self) -> None:
        with self._lock:
            self._table.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._table)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "size": len(self._table),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "persistent": self.backing is not None,
            }


_default_memo: Optional[RectMemo] = None
_default_lock = threading.Lock()


def memo_enabled() -> bool:
    """Whether the process-default memo is on (``REPRO_RECT_MEMO``)."""
    return os.environ.get(ENV_VAR, "1") not in ("0", "off", "false")


def default_memo() -> Optional[RectMemo]:
    """The process-wide memo (created lazily), or None when disabled."""
    if not memo_enabled():
        return None
    global _default_memo
    with _default_lock:
        if _default_memo is None:
            cap = int(os.environ.get(ENV_CAP, DEFAULT_CAPACITY))
            _default_memo = RectMemo(capacity=cap)
        return _default_memo


def install_default_memo(memo: Optional[RectMemo]) -> Optional[RectMemo]:
    """Replace the process-default memo (e.g. with a disk-backed one);
    returns the previous one.  ``None`` uninstalls (a later
    :func:`default_memo` call recreates a fresh in-memory table)."""
    global _default_memo
    with _default_lock:
        previous = _default_memo
        _default_memo = memo
        return previous


def resolve_memo(memo) -> Optional[RectMemo]:
    """Resolve a ``memo=`` argument: ``None`` → the process default,
    ``False`` → disabled, anything else is used as-is."""
    if memo is None:
        return default_memo()
    if memo is False:
        return None
    return memo


def memo_key(signature: str, min_cols: int, prime_only: bool = True) -> str:
    """Memo key: the canonical matrix signature plus every search
    parameter the result depends on."""
    import hashlib

    payload = f"{signature}|min_cols={min_cols}|prime={int(prime_only)}|v2"
    return hashlib.sha256(payload.encode()).hexdigest()


def rect_search_snapshot() -> Dict[str, int]:
    """The flat counter document /metrics and engine health expose."""
    stats = GLOBAL_SEARCH_STATS.snapshot()
    memo = _default_memo
    mstats = memo.stats() if memo is not None else None
    return {
        "rect_search_pruned_subtrees": stats["pruned_subtrees"],
        "rect_search_dominance_skips": stats["dominance_skips"],
        "rect_memo_hits": mstats["hits"] if mstats else 0,
        "rect_memo_misses": mstats["misses"] if mstats else 0,
        "rect_memo_evictions": mstats["evictions"] if mstats else 0,
    }
