"""Differential tests: the bitset searches against their reference walks.

The exhaustive search in :mod:`repro.rectangles.search` walks the
column-subset tree over the live bitset index.  It must return
the same best rectangle, ties included, as the recursive sparse-set
walk kept in :mod:`tests.rectangles.set_walk`, and factorize to
byte-identical results end to end (its node spend is pinned in
:mod:`tests.rectangles.test_search_v2`).  Ping-pong over the live index
is held to byte-level equivalence — identical candidates, identical
meter charges — against the dense walk kept in
:mod:`tests.rectangles.dense_pingpong`.  These tests exercise both on
seeded random KC matrices (which hit degenerate shapes the circuit
suites may not) and on the repo's example circuits.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra.cube import cube, cube_union
from repro.circuits.examples import (
    chain_network,
    paper_example_network,
    two_kernel_network,
)
from repro.circuits.mcnc import make_circuit
from repro.machine.costmodel import CostMeter
from repro.rectangles import pingpong
from repro.rectangles.cover import kernel_extract
from repro.rectangles.kcmatrix import KCMatrix, build_kc_matrix
from repro.rectangles.pingpong import (
    best_rectangle_pingpong,
    pingpong_candidates,
)
from repro.rectangles.search import best_rectangle_exhaustive
from tests.rectangles.dense_pingpong import dense_ascents
from tests.rectangles.set_walk import set_walk_best


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


def with_dense_walk(fn, *args, **kw):
    """Run *fn* with ping-pong swapped for the dense reference walk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pingpong, "_ascents_bit", dense_ascents)
        return fn(*args, **kw)


class TestStreamEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_matrices_tie_broken_best(self, seed):
        mat = random_kc_matrix(seed)
        assert best_rectangle_exhaustive(mat) == set_walk_best(mat)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_matrices_pingpong(self, seed):
        mat = random_kc_matrix(seed)
        assert pingpong_candidates(mat) == with_dense_walk(pingpong_candidates, mat)
        assert best_rectangle_pingpong(mat, max_seeds=5) == with_dense_walk(
            best_rectangle_pingpong, mat, max_seeds=5
        )

    def test_mcnc_circuit_pingpong_meter(self):
        mat = build_kc_matrix(make_circuit("dalu", scale=0.2))

        def run():
            meter = CostMeter()
            got = pingpong_candidates(mat, meter=meter)
            return got, meter.counts.get("pingpong_round")

        live = run()
        assert live == with_dense_walk(run)
        assert live[1]


class TestEndToEnd:
    """Byte-identical factorization against the reference walks."""

    FACTORIES = [paper_example_network, two_kernel_network, chain_network]

    @pytest.mark.parametrize("factory", FACTORIES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("searcher", ["exhaustive", "pingpong"])
    def test_kernel_extract_identical(self, factory, searcher):
        net = factory()
        got = kernel_extract(net, searcher=searcher)
        ref_net = factory()
        if searcher == "exhaustive":
            ref = kernel_extract(ref_net, searcher=set_walk_best)
        else:
            ref = with_dense_walk(kernel_extract, ref_net, searcher=searcher)
        assert net.nodes == ref_net.nodes
        assert got.final_lc == ref.final_lc
        assert [s.rectangle for s in got.steps] == [
            s.rectangle for s in ref.steps
        ]

    def test_eq1_quality_identical_on_both_cores(self):
        # Eq. 1 starts at LC 33; greedy extraction with the exhaustive
        # search and with the set walk lands on the same optimized
        # network (LC 21 with this repo's searchers).
        for searcher in ("exhaustive", set_walk_best):
            net = paper_example_network()
            kernel_extract(net, searcher=searcher)
            assert net.literal_count() == 21


class TestViewStructure:
    def test_view_matches_matrix(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        assert sum(lab is not None for lab in mat.row_labels) == mat.num_rows
        assert sum(lab is not None for lab in mat.col_labels) == mat.num_cols
        assert sum(map(len, mat.row_cells)) == mat.num_entries
        # Round-trip: every label cell sits at its slots, holding the
        # row's cokernel ∪ the column's cube.
        for (r, c), cube_ in mat.cells().items():
            assert cube_ == cube_union(mat.rows[r].cokernel, mat.cols[c])
            rpos = mat.rows[r].slot
            cpos = mat.col_pos[c]
            assert mat.entry_cubes[mat.row_cells[rpos][cpos]] == cube_
            assert mat.row_cols[rpos] >> cpos & 1
            assert mat.col_rows[cpos] >> rpos & 1

    def test_view_invalidated_by_mutation(self, eq1_network):
        # The exhaustive search's label-order tables are dropped by
        # every mutation and derived afresh from the store.
        mat = build_kc_matrix(eq1_network)
        tables = mat.search_tables()
        assert mat.search_tables() is tables  # cached while untouched
        some_row = next(iter(mat.rows))
        mat.remove_row(some_row)
        tables2 = mat.search_tables()
        assert tables2 is not tables
        assert tables2.anchors == sorted(mat.cols)

    def test_live_index_patched_by_mutation(self, eq1_network):
        # The store follows mutations in place: a removed row frees its
        # slot and takes its cells with it.
        mat = build_kc_matrix(eq1_network)
        some_row = next(iter(mat.rows))
        slot = mat.rows[some_row].slot
        entries = mat.num_entries - len(mat.cols_of_row(some_row))
        mat.remove_row(some_row)
        assert mat.row_labels[slot] is None and not mat.row_cells[slot]
        assert some_row not in mat.row_labels
        assert mat.num_entries == entries

    def test_value_table_default_cached(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        assert mat.value_table() is mat.value_table()
        custom = mat.value_table(lambda node, cube_: 1)
        assert custom == [1] * mat.num_entries
