"""Differential tests: the bitmask core must replicate the set core exactly.

The contract (see :mod:`repro.rectangles.bitview`) is byte-level
equivalence, not merely same-best: identical (rectangle, gain) streams
in identical order, identical budget consumption at the point of
exhaustion, identical meter charges, and byte-identical factorization
results end to end.  These tests exercise it on seeded random KC
matrices (which hit degenerate shapes the circuit suites may not) and
on the repo's example circuits.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra.cube import cube
from repro.circuits.examples import (
    chain_network,
    paper_example_network,
    two_kernel_network,
)
from repro.circuits.mcnc import make_circuit
from repro.machine.costmodel import CostMeter
from repro.rectangles.bitview import (
    BitKCView,
    CORES,
    ENV_VAR,
    default_core,
    resolve_core,
)
from repro.rectangles.cover import kernel_extract
from repro.rectangles.kcmatrix import KCMatrix, build_kc_matrix
from repro.rectangles.pingpong import (
    best_rectangle_pingpong,
    pingpong_candidates,
)
from repro.rectangles.search import (
    BudgetExceeded,
    SearchBudget,
    best_rectangle_exhaustive,
    enumerate_rectangles,
)


def random_kc_matrix(seed: int, n_rows: int = 14, n_cols: int = 10) -> KCMatrix:
    """A random sparse KC matrix over a small literal universe.

    Small universes force label collisions the gain model must handle:
    several rows of one node, and distinct (row, col) cells of one node
    naming the same original cube (the distinct-count correction).
    """
    rng = random.Random(seed)
    mat = KCMatrix()
    col_labels = []
    next_col = [1]

    def col_alloc():
        lab = next_col[0]
        next_col[0] += 1
        return lab

    for _ in range(n_cols):
        c = cube(rng.sample(range(1, 9), rng.randint(1, 3)))
        lab = mat.ensure_col(c, col_alloc)
        if lab not in col_labels:
            col_labels.append(lab)
    for i in range(n_rows):
        node = f"n{rng.randint(0, 3)}"
        cok = cube(rng.sample(range(1, 9), rng.randint(1, 2)))
        row = i + 1
        try:
            mat.add_row(row, node, cok)
        except ValueError:
            continue
        for c in col_labels:
            if rng.random() < 0.45:
                mat.add_entry(row, c)
    return mat


SEEDS = range(12)


class TestStreamEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_matrices_identical_stream(self, seed):
        mat = random_kc_matrix(seed)
        stream_set = list(enumerate_rectangles(mat, core="set"))
        stream_bit = list(enumerate_rectangles(mat, core="bit"))
        assert stream_set == stream_bit

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_matrices_nonprime_stream(self, seed):
        mat = random_kc_matrix(seed)
        stream_set = list(enumerate_rectangles(mat, core="set", prime_only=False))
        stream_bit = list(enumerate_rectangles(mat, core="bit", prime_only=False))
        assert stream_set == stream_bit

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_matrices_tie_broken_best(self, seed):
        mat = random_kc_matrix(seed)
        assert best_rectangle_exhaustive(
            mat, core="set"
        ) == best_rectangle_exhaustive(mat, core="bit")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_matrices_pingpong(self, seed):
        mat = random_kc_matrix(seed)
        assert pingpong_candidates(mat, core="set") == pingpong_candidates(
            mat, core="bit"
        )
        assert best_rectangle_pingpong(
            mat, max_seeds=5, core="set"
        ) == best_rectangle_pingpong(mat, max_seeds=5, core="bit")

    def test_eq1_stream(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        assert list(enumerate_rectangles(mat, core="set")) == list(
            enumerate_rectangles(mat, core="bit")
        )

    def test_mcnc_circuit_stream_and_meter(self):
        mat = build_kc_matrix(make_circuit("misex3", scale=0.1))
        meters = {}
        streams = {}
        for core in CORES:
            meters[core] = CostMeter()
            streams[core] = list(
                enumerate_rectangles(mat, meter=meters[core], core=core)
            )
        assert streams["bit"] == streams["set"]
        assert meters["bit"].counts.get("search_node") == meters["set"].counts.get(
            "search_node"
        )

    def test_mcnc_circuit_pingpong_meter(self):
        mat = build_kc_matrix(make_circuit("dalu", scale=0.2))
        meters = {c: CostMeter() for c in CORES}
        got = {
            c: pingpong_candidates(mat, meter=meters[c], core=c) for c in CORES
        }
        assert got["bit"] == got["set"]
        assert meters["bit"].counts.get("pingpong_round") == meters[
            "set"
        ].counts.get("pingpong_round")


class TestBudgetParity:
    """Both cores must spend the budget at identical tree nodes."""

    def run_core(self, mat, core, max_nodes):
        budget = SearchBudget(max_nodes)
        out = []
        raised = False
        try:
            for rg in enumerate_rectangles(mat, budget=budget, core=core):
                out.append(rg)
        except BudgetExceeded:
            raised = True
        return out, raised, budget.used

    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("max_nodes", [1, 5, 17, 60])
    def test_exhaustion_parity(self, seed, max_nodes):
        mat = random_kc_matrix(seed)
        got_set = self.run_core(mat, "set", max_nodes)
        got_bit = self.run_core(mat, "bit", max_nodes)
        assert got_set == got_bit

    def test_mcnc_truncated_prefix(self):
        # seq@0.05 needs ~800 nodes to finish; 300 truncates mid-tree.
        mat = build_kc_matrix(make_circuit("seq", scale=0.05))
        got_set = self.run_core(mat, "set", 300)
        got_bit = self.run_core(mat, "bit", 300)
        assert got_set == got_bit
        assert got_set[1]  # the budget genuinely truncated the search


class TestEndToEnd:
    """Byte-identical factorization on every example circuit."""

    FACTORIES = [paper_example_network, two_kernel_network, chain_network]

    @pytest.mark.parametrize("factory", FACTORIES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("searcher", ["exhaustive", "pingpong"])
    def test_kernel_extract_identical(self, factory, searcher):
        results = {}
        nets = {}
        for core in CORES:
            net = factory()
            results[core] = kernel_extract(net, searcher=searcher, core=core)
            nets[core] = net
        assert nets["bit"].nodes == nets["set"].nodes
        assert results["bit"].final_lc == results["set"].final_lc
        assert [s.rectangle for s in results["bit"].steps] == [
            s.rectangle for s in results["set"].steps
        ]

    def test_eq1_quality_identical_on_both_cores(self):
        # Eq. 1 starts at LC 33; greedy extraction lands both cores on
        # the same optimized network (LC 21 with this repo's searchers).
        for core in CORES:
            net = paper_example_network()
            kernel_extract(net, searcher="exhaustive", core=core)
            assert net.literal_count() == 21


class TestViewStructure:
    def test_view_matches_matrix(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        view = mat.bitview()
        assert view.num_rows == mat.num_rows
        assert view.num_cols == mat.num_cols
        assert view.num_entries == mat.num_entries
        # Round-trip: every sparse entry appears at its dense position.
        for (r, c), cube_ in mat.entries.items():
            rpos = view.row_pos[r]
            cpos = view.col_pos[c]
            assert view.entry_cubes[view.cells[rpos][cpos]] == cube_
            assert view.row_cols[rpos] >> cpos & 1
            assert view.col_rows[cpos] >> rpos & 1

    def test_view_invalidated_by_mutation(self, eq1_network):
        # The sorted compilation is dropped by every mutation.
        mat = build_kc_matrix(eq1_network)
        view = mat.dense_view()
        assert mat.dense_view() is view  # cached while untouched
        some_row = next(iter(mat.rows))
        mat.remove_row(some_row)
        view2 = mat.dense_view()
        assert view2 is not view
        assert view2.num_rows == mat.num_rows

    def test_live_index_patched_by_mutation(self, eq1_network):
        # The live index survives mutations and follows them.
        mat = build_kc_matrix(eq1_network)
        view = mat.bitview()
        some_row = next(iter(mat.rows))
        mat.remove_row(some_row)
        assert mat.bitview() is view
        assert view.num_rows == mat.num_rows
        assert some_row not in view.row_pos

    def test_value_table_default_cached(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        view = mat.bitview()
        assert view.value_table() is view.value_table()
        custom = view.value_table(lambda node, cube_: 1)
        assert custom == [1] * view.num_entries


class TestCoreSelection:
    def test_default_is_bit(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert default_core() == "bit"
        assert resolve_core(None) == "bit"

    def test_env_var_selects_legacy(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "set")
        assert default_core() == "set"
        assert resolve_core(None) == "set"

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "set")
        assert resolve_core("bit") == "bit"

    def test_bad_values_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_core("simd")
        monkeypatch.setenv(ENV_VAR, "numpy")
        with pytest.raises(ValueError):
            default_core()
