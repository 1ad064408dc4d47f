"""Edge cases for the exhaustive search and stripe decomposition."""

import pytest

from repro.network.boolean_network import BooleanNetwork
from repro.rectangles.kcmatrix import KCMatrix, build_kc_matrix
from repro.rectangles.search import (
    SearchBudget,
    best_rectangle_exhaustive,
    column_stripes,
)
from tests.rectangles.set_walk import set_walk


class TestDegenerateMatrices:
    def test_empty_matrix(self):
        assert best_rectangle_exhaustive(KCMatrix()) is None

    def test_single_node_no_sharing(self):
        net = BooleanNetwork()
        net.add_inputs(list("abcd"))
        net.add_node("f", "ab + cd")
        mat = build_kc_matrix(net)
        assert best_rectangle_exhaustive(mat) is None

    def test_self_factoring_found(self):
        # acd + bcd: the single-row rectangle (a+b)@cd has gain 1
        net = BooleanNetwork()
        net.add_inputs(list("abcd"))
        net.add_node("f", "acd + bcd")
        mat = build_kc_matrix(net)
        got = best_rectangle_exhaustive(mat)
        assert got is not None and got[1] == 1

    def test_column_stripes_empty_matrix(self):
        stripes = column_stripes(KCMatrix(), 3)
        assert stripes == [set(), set(), set()]


class TestPrimeOnlyFlag:
    def test_non_prime_superset(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        prime = list(set_walk(mat, prime_only=True))
        full = list(set_walk(mat, prime_only=False))
        assert len(prime) <= len(full)
        assert max(g for _, g in prime) == max(g for _, g in full)

    def test_prime_only_false_with_zero_values(self, eq1_network):
        """With non-monotone values prime_only=False is the safe mode."""
        mat = build_kc_matrix(eq1_network)
        t = eq1_network.table
        dead_cube = tuple(sorted([t.get("a"), t.get("f")]))

        def vf(node, cube):
            return 0 if cube == dead_cube else len(cube)

        full = list(set_walk(mat, value_fn=vf, prime_only=False))
        for rect, gain in full:
            assert gain > 0


class TestBudgetSemantics:
    def test_budget_zero_blows_immediately(self, eq1_network):
        from repro.rectangles.search import BudgetExceeded

        mat = build_kc_matrix(eq1_network)
        with pytest.raises(BudgetExceeded):
            best_rectangle_exhaustive(mat, budget=SearchBudget(0))

    def test_budget_reports_usage(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        b = SearchBudget(10**9)
        best_rectangle_exhaustive(mat, budget=b)
        assert 0 < b.used < 10**6


class TestAnchorSemantics:
    def test_single_column_anchor(self, eq1_network):
        """Anchoring on one column yields only rectangles containing it
        as their leftmost column."""
        mat = build_kc_matrix(eq1_network)
        c0 = sorted(mat.cols)[0]
        for rect, _ in set_walk(mat, anchor_filter=lambda c: c == c0):
            assert rect.cols[0] == c0

    def test_anchor_filter_false_everywhere(self, eq1_network):
        mat = build_kc_matrix(eq1_network)
        assert best_rectangle_exhaustive(mat, anchor_filter=lambda c: False) is None
