import pytest

from repro.machine.costmodel import CostMeter
from repro.rectangles.kcmatrix import build_kc_matrix
from repro.rectangles.rectangle import Rectangle, rectangle_gain
from repro.rectangles.search import (
    BudgetExceeded,
    SearchBudget,
    best_rectangle_exhaustive,
    column_stripes,
)
from tests.rectangles.set_walk import set_walk


class TestEnumerate:
    def test_all_yields_valid_rectangles(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        found = list(set_walk(mat))
        assert found
        for rect, gain in found:
            assert rect.is_valid(mat)
            assert gain == rectangle_gain(mat, rect)
            assert gain > 0
            assert len(rect.cols) >= 2

    def test_min_cols_respected(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        for rect, _ in set_walk(mat, min_cols=3):
            assert len(rect.cols) >= 3

    def test_no_duplicate_column_sets(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        seen = [rect.cols for rect, _ in set_walk(mat, prime_only=False)]
        assert len(seen) == len(set(seen))

    def test_prime_only_is_subset(self, eq1_network, small_circuit):
        """Every prime (cols, gain) is also in the full stream, same gain."""
        for net in (eq1_network, small_circuit):
            mat = build_kc_matrix(net)
            full = {(r.cols, g) for r, g in set_walk(mat, prime_only=False)}
            prime = {(r.cols, g) for r, g in set_walk(mat, prime_only=True)}
            assert prime
            assert prime <= full

    def test_prime_only_preserves_best_gain(self, eq1_network, small_circuit):
        for net in (eq1_network, small_circuit):
            mat = build_kc_matrix(net)
            best_p = max(
                (g for _, g in set_walk(mat, prime_only=True)),
                default=None,
            )
            best_a = max(
                (g for _, g in set_walk(mat, prime_only=False)),
                default=None,
            )
            assert best_p == best_a


class TestBestExhaustive:
    def test_eq1_best_gain_is_8(self, eq1_network):
        """The max-gain rectangle of Eq. 1's matrix is X = a+b (gain 8)."""
        mat = build_kc_matrix(eq1_network)
        rect, gain = best_rectangle_exhaustive(mat)
        assert gain == 8
        kernel_cubes = {mat.cols[c] for c in rect.cols}
        t = eq1_network.table
        assert kernel_cubes == {(t.get("a"),), (t.get("b"),)}

    def test_deterministic(self, small_circuit):
        mat = build_kc_matrix(small_circuit)
        assert best_rectangle_exhaustive(mat) == best_rectangle_exhaustive(mat)

    def test_none_when_no_gain(self):
        from repro.network.boolean_network import BooleanNetwork

        net = BooleanNetwork()
        net.add_inputs(["a", "b"])
        net.add_node("f", "a + b")
        mat = build_kc_matrix(net)
        assert best_rectangle_exhaustive(mat) is None

    def test_meter_charged(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        meter = CostMeter()
        best_rectangle_exhaustive(mat, meter=meter)
        assert meter.counts["search_node"] > 0


class TestBudget:
    def test_budget_exceeded_raises(self, small_circuit):
        mat = build_kc_matrix(small_circuit)
        with pytest.raises(BudgetExceeded):
            best_rectangle_exhaustive(mat, budget=SearchBudget(3))

    def test_budget_accumulates(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        b = SearchBudget(10**9)
        best_rectangle_exhaustive(mat, budget=b)
        used_once = b.used
        best_rectangle_exhaustive(mat, budget=b)
        assert b.used == 2 * used_once


class TestStripes:
    def test_stripes_partition_columns(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        stripes = column_stripes(mat, 3)
        union = set().union(*stripes)
        assert union == set(mat.cols)
        for i in range(3):
            for j in range(i + 1, 3):
                assert not stripes[i] & stripes[j]

    def test_stripes_cover_search_space(self, eq1_network):
        """Union of per-stripe bests must equal the global best (Fig. 1)."""
        mat = build_kc_matrix(eq1_network)
        global_best = best_rectangle_exhaustive(mat)
        for n in (2, 3, 4):
            stripes = column_stripes(mat, n)
            candidates = []
            for s in stripes:
                got = best_rectangle_exhaustive(
                    mat, anchor_filter=lambda c, s=s: c in s
                )
                if got:
                    candidates.append(got)
            assert max(g for _, g in candidates) == global_best[1]

    def test_more_stripes_than_columns(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        stripes = column_stripes(mat, mat.num_cols + 5)
        assert sum(len(s) for s in stripes) == mat.num_cols
