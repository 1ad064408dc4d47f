"""Fiduccia–Mattheyses 2-way min-cut bipartitioning.

Classic FM over the weighted circuit graph: every pass tentatively moves
each free vertex once (highest gain first, balance permitting), records
the running best prefix, and commits it.  Passes repeat until a pass
yields no improvement.  Gains live in integer buckets; each selection
scans the buckets from the highest gain down, names sorted within one.

Determinism: ties break on vertex name, and the initial assignment is
derived from a seeded shuffle — the same (graph, seed) always produces
the same partition, which the reproduction's tables rely on.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.partition.graphs import Graph


class _GainBuckets:
    """Bucketed max-gain structure with name-ordered ties."""

    def __init__(self) -> None:
        self.buckets: Dict[int, Set[str]] = {}
        self.gain_of: Dict[str, int] = {}

    def insert(self, v: str, gain: int) -> None:
        self.gain_of[v] = gain
        self.buckets.setdefault(gain, set()).add(v)

    def remove(self, v: str) -> None:
        g = self.gain_of.pop(v)
        bucket = self.buckets[g]
        bucket.discard(v)
        if not bucket:
            del self.buckets[g]

    def update(self, v: str, delta: int) -> None:
        if v not in self.gain_of:
            return
        g = self.gain_of[v]
        self.remove(v)
        self.insert(v, g + delta)

    def pop_best(self, allowed) -> Optional[str]:
        """Highest-gain vertex satisfying *allowed*; None if none does."""
        for g in sorted(self.buckets, reverse=True):
            for v in sorted(self.buckets[g]):
                if allowed(v):
                    self.remove(v)
                    return v
        return None

    def __len__(self) -> int:
        return len(self.gain_of)


def _vertex_gain(graph: Graph, v: str, side: Mapping[str, int]) -> int:
    gain = 0
    sv = side[v]
    for u, w in graph.adj[v].items():
        gain += w if side[u] != sv else -w
    return gain


def fm_bipartition(
    graph: Graph,
    balance: float = 0.45,
    seed: int = 0,
    max_passes: int = 12,
    initial: Optional[Mapping[str, int]] = None,
    target_fraction: float = 0.5,
    meter=None,
) -> Dict[str, int]:
    """Partition vertices into blocks {0, 1} minimizing the edge cut.

    *balance*: each side must hold at least this fraction of
    ``target_fraction``-scaled total vertex weight (i.e. the 0-side aims
    at ``target_fraction`` of the weight; used by recursive bisection for
    non-power-of-two splits).  Returns the assignment mapping.
    """
    nodes = sorted(graph.weight)
    if not nodes:
        return {}
    weights = graph.weight
    total_w = sum(weights.values())
    target0 = total_w * target_fraction
    slack = total_w * max(0.0, target_fraction - balance * target_fraction) + max(
        weights.values()
    )

    if initial is not None:
        side: Dict[str, int] = dict(initial)
    else:
        rng = random.Random(seed)
        shuffled = nodes[:]
        rng.shuffle(shuffled)
        side = {}
        acc = 0.0
        for v in shuffled:
            side[v] = 0 if acc < target0 else 1
            if side[v] == 0:
                acc += weights[v]

    def weight0() -> float:
        return sum(weights[v] for v in nodes if side[v] == 0)

    for _ in range(max_passes):
        if meter is not None:
            meter.charge("partition_pass", 1)
        buckets = _GainBuckets()
        for v in nodes:
            buckets.insert(v, _vertex_gain(graph, v, side))
        w0 = weight0()
        moves: List[Tuple[str, int]] = []
        cumulative = 0
        best_prefix = 0
        best_cum = 0
        locked: Set[str] = set()

        while len(buckets):
            w0_now = w0

            def allowed(v: str) -> bool:
                if side[v] == 0:
                    return (w0_now - weights[v]) >= (target0 - slack)
                return (w0_now + weights[v]) <= (target0 + slack)

            v = buckets.pop_best(allowed)
            if v is None:
                break
            gain = _vertex_gain(graph, v, side)
            cumulative += gain
            old = side[v]
            side[v] = 1 - old
            w0 += weights[v] * (1 if old == 1 else -1)
            locked.add(v)
            moves.append((v, old))
            # Neighbor gains change by ±2w depending on relative sides.
            for u in graph.adj[v]:
                if u in locked:
                    continue
                buckets.remove(u)
                buckets.insert(u, _vertex_gain(graph, u, side))
            if cumulative > best_cum:
                best_cum = cumulative
                best_prefix = len(moves)

        # Roll back moves beyond the best prefix.
        for v, old in reversed(moves[best_prefix:]):
            side[v] = old
        if best_cum <= 0:
            break
    return side
