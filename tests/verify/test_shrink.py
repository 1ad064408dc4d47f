"""Greedy shrinker: convergence to a minimal repro, deterministic replay."""

from repro.network.boolean_network import BooleanNetwork, base_signal
from repro.network.eqn import read_eqn, write_eqn
from repro.verify.fuzz import check_path
from repro.verify.generator import random_network
from repro.verify.paths import FactorPath
from repro.verify.shrink import shrink_network


def _has_x0x1_cube(net: BooleanNetwork) -> bool:
    """Synthetic fault: some cube reads both x0 and x1 (any polarity)."""
    for f in net.nodes.values():
        for cube in f:
            bases = {base_signal(net.table.name_of(l)) for l in cube}
            if {"x0", "x1"} <= bases:
                return True
    return False


class TestSyntheticFault:
    def test_converges_to_minimal_repro(self):
        net = random_network(1, family="dense")
        assert _has_x0x1_cube(net)  # seed chosen so the fault is present
        small = shrink_network(net, _has_x0x1_cube)
        # 1-minimal for this predicate: one node, one 2-literal cube,
        # and only the inputs that cube reads.
        assert _has_x0x1_cube(small)
        assert len(small.nodes) == 1
        (f,) = small.nodes.values()
        assert len(f) == 1 and len(f[0]) == 2
        assert sorted(small.inputs) == ["x0", "x1"]
        small.validate()

    def test_shrink_is_deterministic(self):
        net = random_network(1, family="dense")
        a = shrink_network(net, _has_x0x1_cube)
        b = shrink_network(net, _has_x0x1_cube)
        assert write_eqn(a) == write_eqn(b)

    def test_emitted_eqn_replays_the_fault(self):
        net = random_network(1, family="dense")
        small = shrink_network(net, _has_x0x1_cube)
        replayed = read_eqn(write_eqn(small), name="replayed")
        assert _has_x0x1_cube(replayed)

    def test_input_not_mutated_and_nonfailing_returned_unchanged(self):
        net = random_network(2, family="sparse")
        before = write_eqn(net)
        shrink_network(net, _has_x0x1_cube if _has_x0x1_cube(net)
                       else lambda _n: False)
        assert write_eqn(net) == before
        # Predicate that never holds: the original object comes back.
        assert shrink_network(net, lambda _n: False) is net


class TestBrokenTransform:
    def test_shrinks_an_equivalence_failure(self):
        # A deliberately buggy "factorizer" that silently drops the last
        # cube of the fattest node — the shape of a real rectangle-cover
        # bookkeeping bug.  The shrinker must reduce the generated
        # network to a minimal case on which the oracle still trips.
        def buggy(network):
            out = network.copy()
            fat = max(out.nodes, key=lambda n: len(out.nodes[n]))
            out.nodes[fat] = out.nodes[fat][:-1]
            return out

        path = FactorPath("buggy", buggy)

        def still_fails(candidate):
            outcome, _ = check_path(candidate, path)
            return outcome is not None and outcome[0] == "equivalence"

        net = random_network(0, family="dense")
        assert still_fails(net)
        small = shrink_network(net, still_fails)
        assert still_fails(small)
        assert small.literal_count() < net.literal_count()
        # Minimal equivalence repro for "drops a cube": a single node —
        # and every literal of every cube is load-bearing for the fault.
        assert len(small.nodes) == 1
