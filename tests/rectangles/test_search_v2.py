"""Differential tests for the v2 pruned search and the canonical memo.

The v2 exhaustive search (branch-and-bound with an admissible
remaining-gain bound plus column-dominance reduction; see the "Search
pruning & memoization" section of docs/algorithms.md) must return the
*identical* best rectangle — value and identity, including lexicographic
tie-breaks — as the unpruned v1 stream and as the recursive set walk
(:mod:`tests.rectangles.set_walk`) on every matrix.  Its node spend and
budget-exhaustion points are pinned to golden values, so a change to
the pruning shows up even where the answer stays the same.  The
cross-job memo must be budget/meter-exact on hits, invalidate itself
across matrix version bumps, and persist through a DiskCache backing.
"""

from __future__ import annotations

import pytest

from repro.algebra.cube import cube
from repro.circuits.mcnc import make_circuit
from repro.machine.costmodel import CostMeter
from repro.rectangles.kcmatrix import KCMatrix, build_kc_matrix
from repro.rectangles.memo import (
    GLOBAL_SEARCH_STATS,
    RectMemo,
    default_memo,
    install_default_memo,
    memo_enabled,
    memo_key,
    rect_search_snapshot,
)
from repro.rectangles.search import (
    BudgetExceeded,
    SearchBudget,
    best_rectangle_exhaustive,
    enumerate_rectangles,
)
from repro.serve.diskcache import DiskCache
from tests.rectangles.set_walk import set_walk_best
from tests.rectangles.test_bitview_equivalence import random_kc_matrix

SEEDS = range(10)

#: What v2 is checked against: the recursive set walk's best ("set") and
#: v1's unpruned stream through ``prune=False`` ("bit").
REFERENCES = ("set", "bit")

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
#: v1 (``prune=False``) on seq@0.05 under a cap of 300: (raised, used,
#: rectangles yielded before the budget ran out).
V1_SEQ_TRUNCATION = (True, 301, 95)


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
        for c in sorted(mat.by_row[r]):
            mat.add_entry(next_row, c)
        next_row += 1
    return mat


@pytest.fixture
def no_default_memo():
    """Isolate a test from the process-default memo."""
    previous = install_default_memo(None)
    yield
    install_default_memo(previous)


def reference_best(mat, reference):
    if reference == "set":
        return set_walk_best(mat)
    return best_rectangle_exhaustive(mat, prune=False)


def v2_nodes(mat) -> int:
    meter = CostMeter()
    best_rectangle_exhaustive(mat, prune=True, memo=False, meter=meter)
    return int(meter.counts["search_node"])


class TestPrunedEqualsUnpruned:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("reference", REFERENCES)
    def test_random_matrices(self, seed, reference):
        mat = random_kc_matrix(seed)
        assert best_rectangle_exhaustive(
            mat, prune=True, memo=False
        ) == reference_best(mat, reference)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("reference", REFERENCES)
    def test_dup_rows_matrices(self, seed, reference):
        mat = dup_rows_matrix(seed)
        assert best_rectangle_exhaustive(
            mat, prune=True, memo=False
        ) == reference_best(mat, reference)

    @pytest.mark.parametrize("reference", REFERENCES)
    def test_mcnc_circuit(self, reference):
        mat = build_kc_matrix(make_circuit("misex3", scale=0.1))
        assert best_rectangle_exhaustive(
            mat, prune=True, memo=False
        ) == reference_best(mat, reference)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cross_core_v2_parity(self, seed):
        # v2 on the bitset compilation against the sparse-set walk: the
        # same best rectangle, at the pinned node spend.
        mat = dup_rows_matrix(seed)
        meter = CostMeter()
        got = best_rectangle_exhaustive(mat, prune=True, memo=False, meter=meter)
        assert got == set_walk_best(mat)
        assert meter.counts["search_node"] == V2_NODES_DUP_ROWS[seed]

    def test_custom_value_fn_falls_back_to_v1(self):
        # v2's bound/dominance proofs only hold for the default value
        # function; a custom one must take the (correct) v1 path.
        mat = random_kc_matrix(0)
        custom = lambda node, c: 1  # noqa: E731
        assert best_rectangle_exhaustive(
            mat, value_fn=custom, prune=True, memo=False
        ) == best_rectangle_exhaustive(mat, value_fn=custom, prune=False)


class TestBudgetParity:
    """Node spend and budget exhaustion match the pinned values."""

    def run_v2(self, mat, max_nodes):
        budget = SearchBudget(max_nodes)
        try:
            best_rectangle_exhaustive(
                mat, prune=True, memo=False, budget=budget
            )
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

    def test_v1_truncation_pinned(self):
        mat = build_kc_matrix(make_circuit("seq", scale=0.05))
        budget = SearchBudget(300)
        yielded = 0
        raised = False
        try:
            for _ in enumerate_rectangles(mat, budget=budget):
                yielded += 1
        except BudgetExceeded:
            raised = True
        assert (raised, budget.used, yielded) == V1_SEQ_TRUNCATION

    def test_v2_never_spends_more_than_v1(self):
        for seed in SEEDS:
            mat = dup_rows_matrix(seed)
            spent = {}
            for prune in (False, True):
                budget = SearchBudget(10**9)
                best_rectangle_exhaustive(
                    mat, prune=prune, memo=False, budget=budget
                )
                spent[prune] = budget.used
            assert spent[True] <= spent[False]


class TestMemo:
    def test_hit_returns_identical_result(self):
        mat = build_kc_matrix(make_circuit("misex3", scale=0.1))
        memo = RectMemo()
        first = best_rectangle_exhaustive(mat, memo=memo)
        mat._touch()  # drop the cached view: force a re-lookup
        second = best_rectangle_exhaustive(mat, memo=memo)
        assert first == second
        stats = memo.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert len(memo) == 1

    def test_hit_across_label_renaming(self):
        # Entries are stored in dense position space: a structurally
        # identical matrix with different row labels must hit and decode
        # to its *own* labels.
        def build(offset):
            base = random_kc_matrix(5)
            mat = KCMatrix()
            for c in sorted(base.cols):
                mat.ensure_col(base.cols[c], lambda c=c: c)
            for r in sorted(base.rows):
                info = base.rows[r]
                mat.add_row(r + offset, info.node, info.cokernel)
                for c in sorted(base.by_row[r]):
                    mat.add_entry(r + offset, c)
            return mat

        memo = RectMemo()
        res0 = best_rectangle_exhaustive(build(0), memo=memo)
        res9 = best_rectangle_exhaustive(build(900), memo=memo)
        assert memo.stats()["hits"] == 1
        assert res0 is not None and res9 is not None
        rect0, gain0 = res0
        rect9, gain9 = res9
        assert gain9 == gain0
        assert rect9.cols == rect0.cols
        assert list(rect9.rows) == [r + 900 for r in rect0.rows]

    def test_version_bump_invalidates(self):
        mat = random_kc_matrix(3)
        memo = RectMemo()
        best_rectangle_exhaustive(mat, memo=memo)
        victim = max(mat.rows)
        mat.remove_row(victim)  # bumps the matrix version
        res = best_rectangle_exhaustive(mat, memo=memo)
        stats = memo.stats()
        assert stats["misses"] == 2 and stats["hits"] == 0
        assert res == best_rectangle_exhaustive(mat, prune=False)

    def test_hit_is_budget_and_meter_exact(self):
        mat = build_kc_matrix(make_circuit("misex3", scale=0.1))
        live_meter = CostMeter()
        live = best_rectangle_exhaustive(
            mat, memo=False, prune=True, meter=live_meter
        )
        nodes = int(live_meter.counts["search_node"])

        memo = RectMemo()
        best_rectangle_exhaustive(mat, memo=memo)
        # Exact-cap budget: the lump replay completes with used == nodes.
        mat._touch()
        budget = SearchBudget(nodes)
        hit_meter = CostMeter()
        hit = best_rectangle_exhaustive(
            mat, memo=memo, budget=budget, meter=hit_meter
        )
        assert hit == live
        assert budget.used == nodes
        assert hit_meter.counts["search_node"] == live_meter.counts[
            "search_node"
        ]
        # One node short: the hit raises exactly like a live run would.
        mat._touch()
        with pytest.raises(BudgetExceeded):
            best_rectangle_exhaustive(
                mat, memo=memo, budget=SearchBudget(nodes - 1)
            )

    def test_incomplete_search_not_stored(self):
        mat = build_kc_matrix(make_circuit("misex3", scale=0.1))
        memo = RectMemo()
        with pytest.raises(BudgetExceeded):
            best_rectangle_exhaustive(mat, memo=memo, budget=SearchBudget(3))
        assert len(memo) == 0

    def test_diskcache_backing_persists_across_memos(self, tmp_path):
        mat = random_kc_matrix(7)
        memo1 = RectMemo(backing=DiskCache(str(tmp_path)))
        first = best_rectangle_exhaustive(mat, memo=memo1)
        # A fresh memo (fresh process, same cache dir) hits via backing.
        memo2 = RectMemo(backing=DiskCache(str(tmp_path)))
        second = best_rectangle_exhaustive(mat, memo=memo2)
        assert first == second
        assert memo2.stats()["hits"] == 1 and memo2.stats()["misses"] == 0

    def test_lru_eviction_counted(self):
        memo = RectMemo(capacity=1)
        mats = [random_kc_matrix(s) for s in (11, 12)]
        for mat in mats:
            best_rectangle_exhaustive(mat, memo=memo)
        assert memo.stats()["evictions"] == 1
        best_rectangle_exhaustive(mats[0], memo=memo)  # evicted: a miss
        assert memo.stats()["misses"] == 3

    def test_memo_key_depends_on_parameters(self):
        sig = "abc"
        keys = {
            memo_key(sig, 2),
            memo_key(sig, 3),
            memo_key(sig, 2, prime_only=False),
            memo_key("abd", 2),
        }
        assert len(keys) == 4


class TestDefaultsAndCounters:
    def test_memo_env_gate(self, monkeypatch, no_default_memo):
        monkeypatch.setenv("REPRO_RECT_MEMO", "0")
        assert not memo_enabled()
        assert default_memo() is None
        monkeypatch.setenv("REPRO_RECT_MEMO", "1")
        assert memo_enabled()
        assert default_memo() is not None

    def test_global_stats_and_snapshot(self, no_default_memo):
        before = GLOBAL_SEARCH_STATS.snapshot()
        mat = build_kc_matrix(make_circuit("misex3", scale=0.1))
        best_rectangle_exhaustive(mat, memo=False, prune=True)
        after = GLOBAL_SEARCH_STATS.snapshot()
        assert after["searches"] == before["searches"] + 1
        assert after["pruned_subtrees"] >= before["pruned_subtrees"]
        snap = rect_search_snapshot()
        assert set(snap) == {
            "rect_search_pruned_subtrees",
            "rect_search_dominance_skips",
            "rect_memo_hits",
            "rect_memo_misses",
            "rect_memo_evictions",
        }

    def test_traced_memo_hit_attaches_counters(self):
        from repro import obs

        mat = build_kc_matrix(make_circuit("misex3", scale=0.1))
        memo = RectMemo()
        best_rectangle_exhaustive(mat, memo=memo)
        mat._touch()
        tracer = obs.Tracer(name="memo-hit")
        with obs.use_tracer(tracer), obs.span("memo-hit"):
            best_rectangle_exhaustive(mat, memo=memo)
        totals = tracer.counter_totals()
        assert totals.get("rect_memo_hits") == 1
        # The hit replays the recorded node spend into the span too, so
        # traced accounting matches the meter/budget replay.
        assert totals.get("search_node_visit", 0) > 0
