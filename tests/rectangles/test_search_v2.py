"""Differential tests for the v2 pruned search.

The v2 exhaustive search (branch-and-bound with an admissible
remaining-gain bound plus column-dominance reduction; see the "Search
pruning" section of docs/algorithms.md) must return the
*identical* best rectangle — value and identity, including lexicographic
tie-breaks — as the recursive set walk (:mod:`tests.rectangles.set_walk`)
on every matrix.  The set walk is the unpruned column-subset walk ("v1")
that v2 prunes, and it spends the budget at v1's nodes, so v2 must never
spend more.  v2's node spend and budget-exhaustion points are pinned to
golden values, so a change to the pruning or to its child order shows up
even where the answer stays the same.
"""

from __future__ import annotations

import inspect

import pytest

from repro.algebra.cube import cube
from repro.circuits.mcnc import make_circuit
from repro.machine.costmodel import CostMeter
from repro.rectangles import search
from repro.rectangles.kcmatrix import KCMatrix, build_kc_matrix
from repro.rectangles.memo import GLOBAL_SEARCH_STATS, rect_search_snapshot
from repro.rectangles.search import (
    BudgetExceeded,
    SearchBudget,
    best_rectangle_exhaustive,
)
from tests.rectangles.set_walk import best_of, set_walk, set_walk_best
from tests.rectangles.test_bitview_equivalence import random_kc_matrix

SEEDS = range(10)

#: What v2 is checked against: the recursive set walk's best ("set").
REFERENCES = {"set": set_walk_best}

#: v2's ``search_node`` spend, pinned: random_kc_matrix(seed) → nodes.
V2_NODES_RANDOM = {
    0: 76, 1: 128, 2: 154, 3: 80, 4: 73,
    5: 106, 6: 109, 7: 92, 8: 147, 9: 77,
}
#: The same for dup_rows_matrix(seed).
V2_NODES_DUP_ROWS = {
    0: 79, 1: 111, 2: 142, 3: 75, 4: 73,
    5: 117, 6: 82, 7: 82, 8: 136, 9: 64,
}
#: The same for misex3@0.1.
V2_NODES_MISEX3 = 258
#: v2 on dup_rows_matrix(seed) under a cap: (seed, cap) → (raised, used).
#: Every cap here truncates; each matrix needs 75-82 nodes to finish.
V2_EXHAUSTION = {
    (seed, cap): (True, cap + 1)
    for seed in (0, 3, 7) for cap in (1, 5, 17, 60)
}
#: The perf suite's exhaustive workloads that finish: (circuit, scale).
PERF_SUITE_FINISHING = [("misex3", 1.0), ("dalu", 0.4), ("seq", 0.2)]


def dup_rows_matrix(seed: int) -> KCMatrix:
    """A random matrix with duplicated row supports (the fuzz suite's
    ``dup_rows`` shape): duplicate rows create tied rectangles and
    subset columns, the exact territory of dominance pruning."""
    import random

    mat = random_kc_matrix(seed)
    rng = random.Random(seed + 1000)
    rows = sorted(mat.rows)
    next_row = max(rows) + 1
    for r in rows[: len(rows) // 2]:
        node = mat.rows[r].node
        cok = cube(rng.sample(range(1, 9), rng.randint(1, 2)))
        mat.add_row(next_row, node, cok)
        for c in sorted(mat.cols_of_row(r)):
            mat.add_entry(next_row, c)
        next_row += 1
    return mat


def v2_nodes(mat) -> int:
    meter = CostMeter()
    best_rectangle_exhaustive(mat, meter=meter)
    return int(meter.counts["search_node"])


class TestPrunedEqualsUnpruned:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("reference", REFERENCES)
    def test_random_matrices(self, seed, reference):
        mat = random_kc_matrix(seed)
        assert best_rectangle_exhaustive(mat) == REFERENCES[reference](mat)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("reference", REFERENCES)
    def test_dup_rows_matrices(self, seed, reference):
        mat = dup_rows_matrix(seed)
        assert best_rectangle_exhaustive(mat) == REFERENCES[reference](mat)

    @pytest.mark.parametrize("reference", REFERENCES)
    def test_mcnc_circuit(self, reference):
        mat = build_kc_matrix(make_circuit("misex3", scale=0.1))
        assert best_rectangle_exhaustive(mat) == REFERENCES[reference](mat)

    @pytest.mark.parametrize("circuit,scale", PERF_SUITE_FINISHING)
    def test_perf_suite_matrices(self, circuit, scale):
        # The real matrices the perf suite times exhaustively to the end.
        mat = build_kc_matrix(make_circuit(circuit, scale=scale))
        assert best_rectangle_exhaustive(mat) == set_walk_best(mat)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cross_core_v2_parity(self, seed):
        # v2 on the bitset compilation against the sparse-set walk: the
        # same best rectangle, at the pinned node spend.
        mat = dup_rows_matrix(seed)
        meter = CostMeter()
        got = best_rectangle_exhaustive(mat, meter=meter)
        assert got == set_walk_best(mat)
        assert meter.counts["search_node"] == V2_NODES_DUP_ROWS[seed]


class TestBudgetParity:
    """Node spend and budget exhaustion match the pinned values."""

    def run_v2(self, mat, max_nodes):
        budget = SearchBudget(max_nodes)
        try:
            best_rectangle_exhaustive(mat, budget=budget)
            return (False, budget.used)
        except BudgetExceeded:
            return (True, budget.used)

    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("max_nodes", [1, 5, 17, 60])
    def test_exhaustion_parity(self, seed, max_nodes):
        mat = dup_rows_matrix(seed)
        assert self.run_v2(mat, max_nodes) == V2_EXHAUSTION[(seed, max_nodes)]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_v2_node_count_pinned(self, seed):
        nodes = V2_NODES_RANDOM[seed]
        assert v2_nodes(random_kc_matrix(seed)) == nodes
        # The budget edge sits exactly at the pinned count.
        assert self.run_v2(random_kc_matrix(seed), nodes) == (False, nodes)
        assert self.run_v2(random_kc_matrix(seed), nodes - 1) == (True, nodes)

    def test_mcnc_v2_node_count_pinned(self):
        mat = build_kc_matrix(make_circuit("misex3", scale=0.1))
        assert v2_nodes(mat) == V2_NODES_MISEX3

    def test_v2_never_spends_more_than_v1(self):
        mats = [dup_rows_matrix(seed) for seed in SEEDS] + [
            build_kc_matrix(make_circuit("misex3", scale=0.1)),
            build_kc_matrix(make_circuit("seq", scale=0.05)),
        ]
        for mat in mats:
            v1, v2 = SearchBudget(10**9), SearchBudget(10**9)
            best_of(set_walk(mat, budget=v1))
            best_rectangle_exhaustive(mat, budget=v2)
            assert v2.used <= v1.used


def _reversed_children_mutant():
    """v2 with branch children pushed in the wrong order."""
    old = "for clab, cpos in reversed(branch):"
    src = inspect.getsource(search._best_rectangle_bit_v2)
    assert src.count(old) == 1, "mutation site not found"
    namespace = dict(vars(search))
    exec(compile(src.replace(old, "for clab, cpos in branch:"),
                 "<mutant>", "exec"), namespace)
    return namespace["_best_rectangle_bit_v2"]


def test_child_order_mutant_is_caught():
    # Popping children in reverse preorder still finds the best rectangle
    # but lets the incumbent cut prune other subtrees: only the pinned
    # node spends can see it.
    mutant = _reversed_children_mutant()
    caught = False
    for make, pins in ((random_kc_matrix, V2_NODES_RANDOM),
                       (dup_rows_matrix, V2_NODES_DUP_ROWS)):
        for seed in SEEDS:
            mat = make(seed)
            got, stats = mutant(mat, 2, None, None, None)
            assert got == set_walk_best(mat)
            caught = caught or stats["nodes"] != pins[seed]
    assert caught, "reversed child order survived the pinned node spends"


class TestDefaultsAndCounters:
    def test_global_stats_and_snapshot(self):
        before = GLOBAL_SEARCH_STATS.snapshot()
        mat = build_kc_matrix(make_circuit("misex3", scale=0.1))
        best_rectangle_exhaustive(mat)
        after = GLOBAL_SEARCH_STATS.snapshot()
        assert after["searches"] == before["searches"] + 1
        assert after["pruned_subtrees"] >= before["pruned_subtrees"]
        snap = rect_search_snapshot()
        assert set(snap) == {
            "rect_search_pruned_subtrees",
            "rect_search_dominance_skips",
            "rect_search_anchors_replayed",
            "rect_memo_hits",
            "rect_memo_misses",
        }
        assert snap["rect_memo_hits"] == snap["rect_memo_misses"] == 0
