"""Exact reproductions of the paper's worked examples (Sections 1–5)."""

import pytest

from repro.circuits.examples import (
    example41_partition,
    example51_partition,
    paper_example_network,
)
from repro.network.simulate import exhaustive_equivalence_check
from repro.parallel.independent import independent_kernel_extract
from repro.parallel.lshaped import build_lshaped_matrices, lshaped_kernel_extract
from repro.machine.simulator import SimulatedMachine
from repro.rectangles.cover import kernel_extract
from repro.rectangles.kcmatrix import LABEL_OFFSET, build_kc_matrix


class TestExample11:
    """Example 1.1: extracting a+b drops LC from 33 to 25; repeated
    extraction (SIS) reaches 22."""

    def test_initial_lc_33(self, eq1_network):
        assert eq1_network.literal_count() == 33

    def test_sis_reaches_at_most_22(self, eq1_network):
        net = eq1_network.copy()
        res = kernel_extract(net)
        assert res.final_lc <= 22
        assert exhaustive_equivalence_check(eq1_network, net, outputs=["F", "G", "H"])


class TestFigure2AndExample41:
    """Section 4: the {F} / {G,H} partition misses cross-partition
    rectangles and duplicates the kernel a+b, landing at 26 literals."""

    def test_partitioned_matrix_is_row_sliced(self, eq1_network):
        p0, p1 = example41_partition()
        m0 = build_kc_matrix(eq1_network, nodes=p0, pid=0)
        m1 = build_kc_matrix(eq1_network, nodes=p1, pid=1)
        assert {i.node for i in m0.rows.values()} == {"F"}
        assert {i.node for i in m1.rows.values()} <= {"G", "H"}
        # label spaces disjoint, as in the figure
        assert all(r < LABEL_OFFSET for r in m0.rows)
        assert all(r > LABEL_OFFSET for r in m1.rows)

    def test_independent_extraction_gets_26(self, eq1_network):
        """Equation 2 of the paper: 26 literals instead of SIS's 22."""
        net = eq1_network.copy()
        p0, p1 = example41_partition()
        kernel_extract(net, nodes=p0, name_prefix="[p0_")
        kernel_extract(net, nodes=p1, name_prefix="[p1_")
        assert net.literal_count() == 26
        assert exhaustive_equivalence_check(eq1_network, net, outputs=["F", "G", "H"])

    def test_kernel_duplicated_across_partitions(self, shared_kernel_network):
        """The Eq. 2 phenomenon: a kernel split across partitions gets
        extracted separately in each (a + b duplicated as X and Z)."""
        net = shared_kernel_network.copy()
        kernel_extract(net, nodes=["P"], name_prefix="[p0_")
        kernel_extract(net, nodes=["Q"], name_prefix="[p1_")
        t = net.table
        ab = tuple(sorted([(t.get("a"),), (t.get("b"),)]))
        holders = [n for n, f in net.nodes.items() if f == ab]
        assert len(holders) == 2
        # whereas joint extraction shares one copy
        joint = shared_kernel_network.copy()
        kernel_extract(joint)
        holders_joint = [n for n, f in joint.nodes.items() if f == ab]
        assert len(holders_joint) <= 1

    def test_algorithm_runner_matches(self, eq1_network):
        res = independent_kernel_extract(eq1_network, 2, seed=0)
        assert res.final_lc >= 24  # strictly worse than SIS's 22
        assert exhaustive_equivalence_check(
            eq1_network, res.network, outputs=["F", "G", "H"]
        )


class TestExample51:
    """Section 5.2: offset labeling and the L-shaped exchange for the
    {G,H} / {F} split."""

    def test_offset_labeling(self, eq1_network):
        blocks = list(example51_partition())
        machine = SimulatedMachine(2)
        setup = build_lshaped_matrices(machine, eq1_network, blocks, {})
        m0, m1 = setup.matrices
        # proc 1's own rows are labeled 100001+ (paper: de -> 100004 etc.)
        own_rows_1 = [r for r in m1.rows if m1.rows[r].node == "F"]
        assert own_rows_1 and all(r > LABEL_OFFSET for r in own_rows_1)
        own_rows_0 = [r for r in m0.rows if m0.rows[r].node in ("G", "H")]
        assert own_rows_0 and all(r < LABEL_OFFSET for r in own_rows_0)

    def test_greedy_cube_ownership(self, eq1_network):
        """Proc 0 owns a,b,c,ce,f; proc 1 owns only its new cubes (de, g)."""
        blocks = list(example51_partition())
        machine = SimulatedMachine(2)
        setup = build_lshaped_matrices(machine, eq1_network, blocks, {})
        t = eq1_network.table
        cubes0 = {setup.matrices[0].cols[c] for c in setup.owned_cols[0]}
        cubes1 = {setup.matrices[1].cols[c] for c in setup.owned_cols[1]}
        assert (t.get("a"),) in cubes0
        assert (t.get("b"),) in cubes0
        assert (t.get("f"),) in cubes0
        g_cube = (t.get("g"),)
        de_cube = tuple(sorted((t.get("d"), t.get("e"))))
        assert g_cube in cubes1 and de_cube in cubes1
        assert not cubes0 & cubes1

    def test_vertical_leg_present(self, eq1_network):
        """Proc 0's matrix gains F's rows restricted to proc-0 columns
        (Figure 4), so the cross-partition rectangle is visible."""
        blocks = list(example51_partition())
        machine = SimulatedMachine(2)
        setup = build_lshaped_matrices(machine, eq1_network, blocks, {})
        m0 = setup.matrices[0]
        f_rows = [r for r, i in m0.rows.items() if i.node == "F"]
        assert f_rows, "vertical leg missing"
        for r in f_rows:
            assert all(c in setup.owned_cols[0] for c in m0.cols_of_row(r))

    def test_horizontal_slab_keeps_unowned_columns(self, eq1_network):
        """Proc 1 keeps its full slab: column f (owned by 0, global label 5)
        still appears in its matrix — the overlap of Example 5.2."""
        blocks = list(example51_partition())
        machine = SimulatedMachine(2)
        setup = build_lshaped_matrices(machine, eq1_network, blocks, {})
        m1 = setup.matrices[1]
        t = eq1_network.table
        f_col_cube = (t.get("f"),)
        assert f_col_cube in m1.col_of_cube
        label = m1.col_of_cube[f_col_cube]
        assert label < LABEL_OFFSET  # relabeled to proc 0's global label

    def test_lshaped_recovers_cross_partition_quality(self, eq1_network):
        """The full algorithm lands at ≤ 23 literals (paper's point: the
        L-shape recovers nearly all of SIS's 22 vs independent's 26)."""
        res = lshaped_kernel_extract(eq1_network, 2, seed=0)
        assert res.final_lc <= 23
        assert exhaustive_equivalence_check(
            eq1_network, res.network, outputs=["F", "G", "H"]
        )


class TestExample52:
    """Section 5.3: without the zero-cost re-check, interleaved extraction
    of overlapping rectangles loses most of the gain."""

    @staticmethod
    def _mid_state():
        """The exact state of Example 5.2: processor 1 already extracted
        Y = de + f from F; processor 0's partial rectangle (X = a + b over
        co-kernels de, f) arrives late."""
        from repro.network.boolean_network import BooleanNetwork

        sim = BooleanNetwork("ex52")
        sim.add_inputs(list("abcdefg"))
        sim.add_node("Y", "d e + f")
        sim.add_node("F", "a Y + b Y + a g + c g + c d e")
        sim.add_node("X", "a + b")
        sim.add_output("F")
        return sim

    def _apply(self, forced_addback: bool):
        from repro.machine.costmodel import CostMeter
        from repro.parallel.cubestate import CubeStateStore
        from repro.parallel.lshaped import _apply_kernel_to_node

        sim = self._mid_state()
        t = sim.table
        mk = lambda *ls: tuple(sorted(t.id_of(x) for x in ls))
        kernel = tuple(sorted([mk("a"), mk("b")]))
        rows = [
            ("F", mk("d", "e"), (("F", mk("a", "d", "e")), ("F", mk("b", "d", "e")))),
            ("F", mk("f"), (("F", mk("a", "f")), ("F", mk("b", "f")))),
        ]
        store = CubeStateStore()
        store.divide(ref for _, _, refs in rows for ref in refs)
        if forced_addback:
            expr = set(sim.nodes["F"])
            for _, _, refs in rows:
                expr.update(cube for _, cube in refs)
            sim.set_expression("F", sorted(expr))
        _apply_kernel_to_node(
            sim, "F", kernel, t.id_of("X"), rows, store, pid=1, meter=CostMeter()
        )
        return sim

    def test_scripted_recheck_saves_8(self):
        """Paper: F' = XY + ag + cg + cde — 9 literals, saving 8."""
        sim = self._apply(forced_addback=False)
        assert sim.literal_count("F") == 9

    def test_scripted_naive_saves_only_3(self):
        """Paper: adding the cubes back yields 14 literals, saving just 3."""
        sim = self._apply(forced_addback=True)
        assert sim.literal_count("F") == 14

    def test_scripted_both_preserve_function(self):
        from repro.network.simulate import exhaustive_equivalence_check

        ref = self._mid_state()
        for forced in (False, True):
            sim = self._apply(forced_addback=forced)
            assert exhaustive_equivalence_check(ref, sim, outputs=["F"])

    def test_recheck_beats_no_recheck(self, eq1_network):
        good = lshaped_kernel_extract(eq1_network, 2, seed=0)
        bad = lshaped_kernel_extract(eq1_network, 2, seed=0, disable_recheck=True)
        assert good.final_lc <= bad.final_lc
        # both remain correct
        for r in (good, bad):
            assert exhaustive_equivalence_check(
                eq1_network, r.network, outputs=["F", "G", "H"]
            )
