"""Differential tests: the exhaustive search against the recursive set walk.

The search in :mod:`repro.rectangles.search` walks the column-subset
tree over the sorted bitset compilation.  Its contract against the
recursive sparse-set walk kept in :mod:`tests.rectangles.set_walk` is
byte-level equivalence, not merely same-best: identical (rectangle,
gain) streams in identical order, identical budget consumption at the
point of exhaustion, identical meter charges, and byte-identical
factorization results end to end.  Ping-pong is held the same way
against the dense walk kept in :mod:`tests.rectangles.dense_pingpong`.
These tests exercise both on seeded random KC matrices (which hit
degenerate shapes the circuit suites may not), on the fuzz families'
KC matrices and on the repo's example circuits.
"""

from __future__ import annotations

import inspect
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
from repro.rectangles import pingpong, search
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
from repro.verify.generator import FAMILIES, random_network
from tests.rectangles.dense_pingpong import dense_ascents
from tests.rectangles.set_walk import best_of, set_walk, set_walk_best


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


def metered(walk, mat, **kw):
    """(stream, search_node charges) of one walk over *mat*."""
    meter = CostMeter()
    stream = list(walk(mat, meter=meter, **kw))
    return stream, meter.counts.get("search_node")


class TestStreamEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_matrices_identical_stream(self, seed):
        mat = random_kc_matrix(seed)
        assert metered(enumerate_rectangles, mat) == metered(set_walk, mat)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_matrices_nonprime_stream(self, seed):
        mat = random_kc_matrix(seed)
        assert metered(enumerate_rectangles, mat, prime_only=False) == metered(
            set_walk, mat, prime_only=False
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_matrices_tie_broken_best(self, seed):
        mat = random_kc_matrix(seed)
        want = set_walk_best(mat)
        assert best_of(enumerate_rectangles(mat)) == want
        assert best_rectangle_exhaustive(mat) == want

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_matrices_pingpong(self, seed):
        mat = random_kc_matrix(seed)
        assert pingpong_candidates(mat) == with_dense_walk(pingpong_candidates, mat)
        assert best_rectangle_pingpong(mat, max_seeds=5) == with_dense_walk(
            best_rectangle_pingpong, mat, max_seeds=5
        )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_fuzz_family_streams(self, family):
        rects = 0
        for seed in range(10):
            mat = build_kc_matrix(random_network(seed, family))
            got = metered(enumerate_rectangles, mat)
            assert got == metered(set_walk, mat)
            assert metered(enumerate_rectangles, mat, prime_only=False) == (
                metered(set_walk, mat, prime_only=False)
            )
            rects += len(got[0])
        assert rects > 0

    def test_eq1_stream(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        assert list(enumerate_rectangles(mat)) == list(set_walk(mat))

    def test_mcnc_circuit_stream_and_meter(self):
        mat = build_kc_matrix(make_circuit("misex3", scale=0.1))
        got = metered(enumerate_rectangles, mat)
        assert got == metered(set_walk, mat)
        assert got[1]

    def test_mcnc_circuit_pingpong_meter(self):
        mat = build_kc_matrix(make_circuit("dalu", scale=0.2))

        def run():
            meter = CostMeter()
            got = pingpong_candidates(mat, meter=meter)
            return got, meter.counts.get("pingpong_round")

        live = run()
        assert live == with_dense_walk(run)
        assert live[1]


class TestBudgetParity:
    """The search and the set walk spend the budget at identical nodes."""

    def run_walk(self, walk, mat, max_nodes):
        budget = SearchBudget(max_nodes)
        out = []
        raised = False
        try:
            for rg in walk(mat, budget=budget):
                out.append(rg)
        except BudgetExceeded:
            raised = True
        return out, raised, budget.used

    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("max_nodes", [1, 5, 17, 60])
    def test_exhaustion_parity(self, seed, max_nodes):
        mat = random_kc_matrix(seed)
        assert self.run_walk(enumerate_rectangles, mat, max_nodes) == (
            self.run_walk(set_walk, mat, max_nodes)
        )

    def test_mcnc_truncated_prefix(self):
        # seq@0.05 needs ~800 nodes to finish; 300 truncates mid-tree.
        mat = build_kc_matrix(make_circuit("seq", scale=0.05))
        got = self.run_walk(enumerate_rectangles, mat, 300)
        assert got == self.run_walk(set_walk, mat, 300)
        assert got[1]  # the budget genuinely truncated the search


def _reversed_children_mutant():
    """v1 with branch children pushed in the wrong order."""
    old = "for cpos, rows2 in reversed(branch):"
    src = inspect.getsource(search._enumerate_rectangles_bit)
    assert src.count(old) == 1, "mutation site not found"
    namespace = dict(vars(search))
    exec(compile(src.replace(old, "for cpos, rows2 in branch:"),
                 "<mutant>", "exec"), namespace)
    return namespace["_enumerate_rectangles_bit"]


def test_child_order_mutant_is_caught():
    # Popping children in reverse preorder yields the same rectangles in
    # another order: the stream comparison must see it.
    mutant = _reversed_children_mutant()
    caught = False
    for seed in SEEDS:
        mat = random_kc_matrix(seed)
        got = list(mutant(mat, search.default_value, 2, None, None, None, True))
        want = list(set_walk(mat))
        assert sorted(got, key=repr) == sorted(want, key=repr)
        caught = caught or got != want
    assert caught, "reversed child order survived the set-walk comparison"


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
