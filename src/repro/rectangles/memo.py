"""Process-wide pruning counters of the v2 exhaustive rectangle search.

:data:`GLOBAL_SEARCH_STATS` tallies every
:func:`~repro.rectangles.search.best_rectangle_exhaustive` run and the
work its bound (``rect_search_pruned_subtrees``), anchor dominance
(``rect_search_dominance_skips``) and anchor record replay
(``rect_search_anchors_replayed``) saved; :func:`rect_search_snapshot`
is the flat document ``/metrics`` and engine health expose.
"""

from __future__ import annotations

import threading
from typing import Dict

#: The counter names exposed in ``repro profile`` output and /metrics.
COUNTER_NAMES = (
    "rect_search_pruned_subtrees",
    "rect_search_dominance_skips",
    "rect_search_anchors_replayed",
)


class SearchStats:
    """Process-wide tally of the v2 search's pruning and replay work."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.searches = 0
        self.pruned_subtrees = 0
        self.dominance_skips = 0
        self.anchors_replayed = 0

    def record(self, pruned: int, dominance: int, replayed: int) -> None:
        with self._lock:
            self.searches += 1
            self.pruned_subtrees += pruned
            self.dominance_skips += dominance
            self.anchors_replayed += replayed

    def reset(self) -> None:
        with self._lock:
            self.searches = 0
            self.pruned_subtrees = 0
            self.dominance_skips = 0
            self.anchors_replayed = 0

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "searches": self.searches,
                "pruned_subtrees": self.pruned_subtrees,
                "dominance_skips": self.dominance_skips,
                "anchors_replayed": self.anchors_replayed,
            }


GLOBAL_SEARCH_STATS = SearchStats()


def rect_search_snapshot() -> Dict[str, int]:
    """The flat counter document /metrics and engine health expose."""
    stats = GLOBAL_SEARCH_STATS.snapshot()
    return {
        "rect_search_pruned_subtrees": stats["pruned_subtrees"],
        "rect_search_dominance_skips": stats["dominance_skips"],
        "rect_search_anchors_replayed": stats["anchors_replayed"],
        # ``bench/inproc.py`` still subscripts these two keys; the
        # rectangle memo they counted is gone, so they stay 0.
        "rect_memo_hits": 0,
        "rect_memo_misses": 0,
    }
