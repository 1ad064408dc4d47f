import pytest

from repro.machine.costmodel import CostMeter
from repro.partition.fm import fm_bipartition
from repro.partition.graphs import (
    Graph,
    block_nodes,
    block_weights,
    circuit_graph,
    cut_size,
)
from repro.partition.multiway import multiway_partition, random_partition


@pytest.fixture
def two_cluster_graph():
    """Two dense 5-cliques joined by one light edge — obvious min cut."""
    g = Graph({f"{base}{i}": 1 for base in "ab" for i in range(5)})
    for base in ("a", "b"):
        members = [f"{base}{i}" for i in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                g.add_edge(members[i], members[j], 3)
    g.add_edge("a0", "b0", 1)
    return g


class TestCircuitGraph:
    def test_vertices_are_internal_nodes(self, eq1_network):
        g = circuit_graph(eq1_network)
        assert set(g.weight) == {"F", "G", "H"}

    def test_edges_from_fanin(self):
        from repro.network.boolean_network import BooleanNetwork

        net = BooleanNetwork()
        net.add_inputs(["a"])
        net.add_node("x", "a")
        net.add_node("y", "x + a")
        g = circuit_graph(net)
        assert "y" in g.adj["x"] and "x" in g.adj["y"]

    def test_edge_weight_counts_references(self):
        from repro.network.boolean_network import BooleanNetwork

        net = BooleanNetwork()
        net.add_inputs(["a", "b"])
        net.add_node("x", "a + b")
        net.add_node("y", "xa + xb + x'")
        g = circuit_graph(net)
        assert g.adj["x"]["y"] == g.adj["y"]["x"] >= 2

    def test_vertex_weight_is_lc(self, eq1_network):
        g = circuit_graph(eq1_network)
        assert g.weight["F"] == eq1_network.literal_count("F")

    def test_no_pi_vertices(self, eq1_network):
        g = circuit_graph(eq1_network)
        assert "a" not in g.weight


class TestGraph:
    def test_add_edge_accumulates_symmetrically(self):
        g = Graph({"x": 1, "y": 2})
        g.add_edge("x", "y", 2)
        g.add_edge("y", "x", 3)
        assert g.adj == {"x": {"y": 5}, "y": {"x": 5}}

    def test_subgraph_is_induced(self, two_cluster_graph):
        sub = two_cluster_graph.subgraph(["a0", "a1", "b0"])
        assert sub.weight == {"a0": 1, "a1": 1, "b0": 1}
        assert sub.adj == {
            "a0": {"a1": 3, "b0": 1},
            "a1": {"a0": 3},
            "b0": {"a0": 1},
        }
        assert len(two_cluster_graph.adj["a0"]) == 5


class TestCutSize:
    def test_zero_when_together(self, two_cluster_graph):
        assignment = {v: 0 for v in two_cluster_graph.weight}
        assert cut_size(two_cluster_graph, assignment) == 0

    def test_counts_weights(self, two_cluster_graph):
        assignment = {
            v: (0 if v.startswith("a") else 1) for v in two_cluster_graph.weight
        }
        assert cut_size(two_cluster_graph, assignment) == 1


class TestFM:
    def test_finds_natural_cut(self, two_cluster_graph):
        side = fm_bipartition(two_cluster_graph, seed=1)
        assert cut_size(two_cluster_graph, side) == 1

    def test_balanced(self, two_cluster_graph):
        side = fm_bipartition(two_cluster_graph, seed=1)
        w = block_weights(two_cluster_graph, side, 2)
        assert min(w) >= 3

    def test_deterministic(self, two_cluster_graph):
        assert fm_bipartition(two_cluster_graph, seed=5) == fm_bipartition(
            two_cluster_graph, seed=5
        )

    def test_empty_graph(self):
        assert fm_bipartition(Graph()) == {}

    def test_initial_assignment_respected(self, two_cluster_graph):
        initial = {
            v: (0 if v.startswith("a") else 1) for v in two_cluster_graph.weight
        }
        side = fm_bipartition(two_cluster_graph, initial=initial)
        assert cut_size(two_cluster_graph, side) <= 1

    def test_target_fraction(self, two_cluster_graph):
        side = fm_bipartition(two_cluster_graph, target_fraction=0.3, seed=2)
        w = block_weights(two_cluster_graph, side, 2)
        assert w[0] <= w[1]

    def test_meter_charged(self, two_cluster_graph):
        meter = CostMeter()
        fm_bipartition(two_cluster_graph, meter=meter)
        assert meter.counts["partition_pass"] >= 1


class TestMultiway:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_covers_all_vertices(self, two_cluster_graph, n):
        assignment = multiway_partition(two_cluster_graph, n)
        assert set(assignment) == set(two_cluster_graph.weight)
        assert set(assignment.values()) <= set(range(n))

    def test_all_blocks_nonempty(self, two_cluster_graph):
        for n in (2, 3, 5):
            assignment = multiway_partition(two_cluster_graph, n)
            blocks = block_nodes(assignment, n)
            assert all(blocks), f"empty block for n={n}"

    def test_two_way_matches_fm_quality(self, two_cluster_graph):
        assignment = multiway_partition(two_cluster_graph, 2)
        assert cut_size(two_cluster_graph, assignment) == 1

    def test_deterministic(self, two_cluster_graph):
        a = multiway_partition(two_cluster_graph, 3, seed=9)
        b = multiway_partition(two_cluster_graph, 3, seed=9)
        assert a == b

    def test_beats_random_on_clustered(self, two_cluster_graph):
        mc = multiway_partition(two_cluster_graph, 2, seed=0)
        rnd = random_partition(two_cluster_graph, 2, seed=0)
        assert cut_size(two_cluster_graph, mc) <= cut_size(two_cluster_graph, rnd)

    def test_invalid_nblocks(self, two_cluster_graph):
        with pytest.raises(ValueError):
            multiway_partition(two_cluster_graph, 0)

    def test_on_circuit(self, small_circuit):
        g = circuit_graph(small_circuit)
        for n in (2, 4):
            assignment = multiway_partition(g, n)
            blocks = block_nodes(assignment, n)
            assert sum(len(b) for b in blocks) == len(g.weight)
            assert all(blocks)


class TestRandomPartition:
    def test_balanced_weights(self, two_cluster_graph):
        assignment = random_partition(two_cluster_graph, 2, seed=3)
        w = block_weights(two_cluster_graph, assignment, 2)
        assert abs(w[0] - w[1]) <= 2

    def test_deterministic(self, two_cluster_graph):
        assert random_partition(two_cluster_graph, 3, seed=1) == random_partition(
            two_cluster_graph, 3, seed=1
        )
