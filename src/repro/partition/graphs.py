"""Netlist-to-graph mapping for min-cut partitioning.

The paper: "The circuit is mapped to a graph, by transforming the nodes
to vertices and the fanin-fanout relation between node pairs into
edges."  Primary inputs are not vertices — only internal nodes are
distributed across processors.  Edge weights count how many distinct
fanin references connect the pair (a node reading another through both
phases counts once per phase); node weights are SOP literal counts so
balance constraints track work, not node count.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro.algebra.sop import sop_support
from repro.network.boolean_network import BooleanNetwork, base_signal


class Graph:
    """Undirected vertex- and edge-weighted graph on two plain dicts.

    ``weight`` maps vertex → weight; ``adj`` maps vertex → {neighbour:
    edge weight}, stored in both directions.
    """

    def __init__(self, weight: Optional[Mapping[str, int]] = None) -> None:
        self.weight: Dict[str, int] = dict(weight or {})
        self.adj: Dict[str, Dict[str, int]] = {v: {} for v in self.weight}

    def add_edge(self, u: str, v: str, w: int) -> None:
        """Add *w* to the weight of edge ``{u, v}`` (created at 0)."""
        self.adj[u][v] = self.adj[v][u] = self.adj[u].get(v, 0) + w

    def subgraph(self, vertices: Iterable[str]) -> "Graph":
        """The induced subgraph on *vertices*."""
        sub = Graph({v: self.weight[v] for v in vertices})
        for v, nbrs in sub.adj.items():
            nbrs.update((u, w) for u, w in self.adj[v].items() if u in sub.weight)
        return sub


def circuit_graph(network: BooleanNetwork) -> Graph:
    """Undirected weighted graph over internal nodes.

    Vertex weight = node literal count; edge weight = number of fanin
    literals realizing the connection.
    """
    g = Graph({n: max(1, network.literal_count(n)) for n in network.nodes})
    for n, f in network.nodes.items():
        refs: Dict[str, int] = {}
        for lit in sop_support(f):
            s = base_signal(network.table.name_of(lit))
            if s in network.nodes and s != n:
                refs[s] = refs.get(s, 0) + 1
        for s, w in refs.items():
            g.add_edge(n, s, w)
    return g


def cut_size(graph: Graph, assignment: Mapping[str, int]) -> int:
    """Total weight of edges whose endpoints sit in different blocks."""
    total = 0
    for u, nbrs in graph.adj.items():
        for v, w in nbrs.items():
            if u < v and assignment[u] != assignment[v]:
                total += w
    return total


def block_nodes(assignment: Mapping[str, int], nblocks: int) -> List[List[str]]:
    """Group node names by block id, names sorted for determinism."""
    out: List[List[str]] = [[] for _ in range(nblocks)]
    for n, b in assignment.items():
        out[b].append(n)
    for lst in out:
        lst.sort()
    return out


def block_weights(graph: Graph, assignment: Mapping[str, int], nblocks: int) -> List[int]:
    """Total vertex weight per block."""
    out = [0] * nblocks
    for n, b in assignment.items():
        out[b] += graph.weight[n]
    return out
