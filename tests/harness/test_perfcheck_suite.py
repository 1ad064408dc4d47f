"""The perf-check quick suite runs what its row names say.

A ``-dnf`` row times an exhaustive search cut off at its node budget
(the paper's did-not-finish regime), so its search must raise
``BudgetExceeded``; every other row must finish within its budget.
Every timed repeat is a search from scratch: it replays no ping-pong
ascent and no exhaustive-search anchor from an earlier repeat.
"""

from __future__ import annotations

import pytest

from repro.harness.perfcheck import (
    QUICK_SUITE,
    _build_network,
    _run_searcher,
    _time_search,
)
from repro.rectangles.kcmatrix import KCMatrix, build_kc_matrix
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


@pytest.mark.parametrize("wl", QUICK_SUITE, ids=[wl.name for wl in QUICK_SUITE])
def test_timed_repeats_replay_no_ascent_or_anchor(wl, monkeypatch):
    # Every record table a search is handed must be empty: a non-empty
    # one would let a repeat replay the previous repeat's work.
    handed = []
    real_anchors = KCMatrix.anchor_records
    real_ascents = KCMatrix.ascent_records

    def anchor_records(self, min_cols):
        got = real_anchors(self, min_cols)
        handed.append(len(got))
        return got

    def ascent_records(self, key):
        got = real_ascents(self, key)
        handed.append(len(got[0]))
        return got

    monkeypatch.setattr(KCMatrix, "anchor_records", anchor_records)
    monkeypatch.setattr(KCMatrix, "ascent_records", ascent_records)
    _time_search(wl, build_kc_matrix(_build_network(wl)))
    assert len(handed) == 1 + wl.repeats
    assert not any(handed)


def test_kc_build_row_patches_every_searched_version():
    from repro.harness.perfcheck import KC_BUILD, _kc_build_versions
    from repro.rectangles.cover import kernel_extract

    versions = _kc_build_versions(KC_BUILD)
    # One version per search: each extraction's, then the last one,
    # which finds nothing.
    result = kernel_extract(_build_network(KC_BUILD), max_seeds=KC_BUILD.max_seeds)
    assert len(versions) == result.iterations + 1


def test_kc_build_gate_fails_past_its_ratio():
    from repro.harness.perfcheck import MAX_KC_BUILD_RATIO, kc_build_gate

    row = {"name": "probe", "t_s": MAX_KC_BUILD_RATIO, "t_rebuild_s": 1.0}
    assert kc_build_gate(row)["ok"]
    row["t_s"] = 2 * MAX_KC_BUILD_RATIO
    assert not kc_build_gate(row)["ok"]


def test_kernel_gen_row_times_every_kc_build_expression():
    from dataclasses import replace

    from repro.harness.perfcheck import KC_BUILD, KERNEL_GEN, _kc_build_versions, run_kernel_gen

    # kc-build's versions share one kernel list per distinct expression.
    lists = {id(ks): ks for v in _kc_build_versions(KC_BUILD) for ks in v.values()}
    row = run_kernel_gen(replace(KERNEL_GEN, repeats=1))
    assert (KERNEL_GEN.circuit, KERNEL_GEN.scale) == (KC_BUILD.circuit, KC_BUILD.scale)
    assert row["expressions"] == len(lists)
    assert row["rows"] == sum(map(len, lists.values()))
    assert row["unit"] == "kernel_cube_visit"
    assert row["units"] >= row["entries"] > 0
