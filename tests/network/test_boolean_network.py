import pytest

from repro.network.boolean_network import BooleanNetwork, base_signal


class TestConstruction:
    def test_add_input_idempotent(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_input("a")
        assert net.inputs == ["a"]

    def test_add_node_from_text(self):
        net = BooleanNetwork()
        net.add_inputs(["a", "b"])
        net.add_node("f", "ab + a")
        assert net.literal_count("f") == 3

    def test_add_node_from_cubes(self):
        net = BooleanNetwork()
        net.add_inputs(["a", "b"])
        ids = [net.table.get("a"), net.table.get("b")]
        net.add_node("f", [ids, [ids[0]]])
        assert len(net.nodes["f"]) == 2

    def test_node_shadowing_input_rejected(self):
        net = BooleanNetwork()
        net.add_input("a")
        with pytest.raises(ValueError):
            net.add_node("a", "a")

    def test_duplicate_node_rejected(self):
        net = BooleanNetwork()
        net.add_inputs(["a"])
        net.add_node("f", "a")
        with pytest.raises(ValueError):
            net.add_node("f", "a")

    def test_input_shadowing_node_rejected(self):
        net = BooleanNetwork()
        net.add_inputs(["a"])
        net.add_node("f", "a")
        with pytest.raises(ValueError):
            net.add_input("f")

    def test_new_node_name_fresh(self):
        net = BooleanNetwork()
        net.add_inputs(["a"])
        net.add_node("f", "a")
        name = net.new_node_name()
        assert name not in net.nodes
        assert not net.is_input(name)


class TestQueries:
    def test_literal_count_total(self, eq1_network):
        assert eq1_network.literal_count() == 33

    def test_literal_count_per_node(self, eq1_network):
        assert eq1_network.literal_count("H") == 6

    def test_fanin_strips_complements(self):
        net = BooleanNetwork()
        net.add_inputs(["a", "b"])
        net.add_node("f", "a'b + a")
        assert net.fanin_signals("f") == {"a", "b"}

    def test_fanout_map(self, eq1_network):
        fo = eq1_network.fanout_map()
        assert fo["a"] >= {"F", "G", "H"}
        assert fo["F"] == set()

    def test_topological_order(self):
        net = BooleanNetwork()
        net.add_inputs(["a"])
        net.add_node("x", "a")
        net.add_node("y", "x")
        net.add_node("z", "y + x")
        order = net.topological_order()
        assert order.index("x") < order.index("y") < order.index("z")

    def test_cycle_detected(self):
        net = BooleanNetwork()
        net.add_inputs(["a"])
        net.add_node("x", "a")
        net.add_node("y", "x")
        # force a cycle by editing expressions directly
        net.nodes["x"] = net.nodes["x"] + ((net.table.id_of("y"),),)
        with pytest.raises(ValueError, match="cycle"):
            net.topological_order()

    def test_validate_undefined_signal(self):
        net = BooleanNetwork()
        net.add_inputs(["a"])
        net.add_node("f", "a")
        net.nodes["f"] = ((net.table.id_of("ghost"),),)
        with pytest.raises(ValueError, match="undefined"):
            net.validate()

    def test_validate_undefined_output(self):
        net = BooleanNetwork()
        net.add_inputs(["a"])
        net.add_output("nope")
        with pytest.raises(ValueError, match="output"):
            net.validate()


class TestSweep:
    def test_sweep_removes_dead(self):
        net = BooleanNetwork()
        net.add_inputs(["a", "b"])
        net.add_node("live", "ab")
        net.add_node("dead", "a + b")
        net.add_output("live")
        removed = net.sweep()
        assert removed == 1
        assert "dead" not in net.nodes

    def test_sweep_keeps_transitive_support(self):
        net = BooleanNetwork()
        net.add_inputs(["a"])
        net.add_node("x", "a")
        net.add_node("y", "x")
        net.add_output("y")
        assert net.sweep() == 0
        assert set(net.nodes) == {"x", "y"}


class TestCopy:
    def test_copy_independent(self, eq1_network):
        dup = eq1_network.copy()
        dup.add_node("new", "a + b")
        assert "new" not in eq1_network.nodes


def test_base_signal():
    assert base_signal("a'") == "a"
    assert base_signal("a") == "a"
    assert base_signal("x''") == "x"
