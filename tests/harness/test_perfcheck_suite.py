"""The perf-check quick suite runs what its row names say.

A ``-dnf`` row times an exhaustive search cut off at its node budget
(the paper's did-not-finish regime), so its search must raise
``BudgetExceeded``; every other row must finish within its budget.
"""

from __future__ import annotations

import pytest

from repro.harness.perfcheck import QUICK_SUITE, _build_network, _run_searcher
from repro.rectangles.kcmatrix import build_kc_matrix
from repro.rectangles.search import (
    BudgetExceeded,
    SearchBudget,
    best_rectangle_exhaustive,
)


@pytest.mark.parametrize("wl", QUICK_SUITE, ids=[wl.name for wl in QUICK_SUITE])
def test_quick_suite_rows_truncate_only_when_named_dnf(wl):
    matrix = build_kc_matrix(_build_network(wl))
    if wl.searcher != "exhaustive":
        assert not wl.name.endswith("-dnf")
        _run_searcher(wl, matrix)
        return
    budget = SearchBudget(wl.budget) if wl.budget is not None else None
    if wl.name.endswith("-dnf"):
        with pytest.raises(BudgetExceeded):
            best_rectangle_exhaustive(matrix, budget=budget)
    else:
        assert best_rectangle_exhaustive(matrix, budget=budget) is not None
