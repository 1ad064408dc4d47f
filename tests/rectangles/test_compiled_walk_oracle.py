"""The exhaustive search on the live index against the compiled walk.

:func:`repro.rectangles.search._best_rectangle_bit_v2` walks the live
bitset index, whose slots drift away from label order as rows move,
columns are relabelled and freed slots are reused; it reads every order
from labels through ``KCMatrix.search_tables()``.  The walk it replaced
ran on a sorted compilation whose positions are label ranks, and is kept
verbatim as the oracle :func:`tests.rectangles.compiled_walk.compiled_walk`.

At every version of matrices driven through random
``IncrementalKCMatrix.replace_nodes`` sequences (row moves and column
relabels included) and random ``KCMatrix`` mutator sequences (relabels
both ways, overlapping cubes), both walks must give, whole and per
column stripe:

- the same rectangle and gain, the same stats dict and the same
  ``search_node`` charges;
- under a node cap below the full spend, ``BudgetExceeded`` at the same
  node;
- with anchor reuse on, run on twin copies of the matrix (the same
  records and marks), the same anchor records afterwards.

The label-order tables must also equal the compile's position tables
mapped to labels, and walks that take an order from slots must be
caught.
"""

from __future__ import annotations

import copy
import inspect
import random

import pytest

from repro.machine.costmodel import CostMeter
from repro.rectangles import search
from repro.rectangles.bitview import iter_bits
from repro.rectangles.kcmatrix import IncrementalKCMatrix, KCMatrix
from repro.rectangles.search import BudgetExceeded, SearchBudget, column_stripe_bounds
from tests.rectangles.compiled_walk import BitKCView, compiled_walk
from tests.rectangles.test_incremental_kc import _random_kernel, _random_list
from tests.rectangles.test_live_bitview import OPS, _mutate

STRIPES = 4


def _run(walk, mat, reuse, cap=None, anchor_range=None):
    """One walk: (answer or "exhausted", stats, search_node charge,
    budget spend)."""
    meter = CostMeter()
    budget = SearchBudget(cap) if cap is not None else None
    try:
        got, stats = walk(mat, 2, None, budget, meter, anchor_range, 0, reuse)
    except BudgetExceeded:
        got, stats = "exhausted", None
    used = budget.used if budget is not None else None
    return got, stats, int(meter.counts.get("search_node", 0)), used


def _compare(mat, reuse, cap=None, anchor_range=None):
    """Run both walks on *mat*; return the live walk's node count."""
    if reuse:
        twin = copy.deepcopy(mat)
        live = _run(search._best_rectangle_bit_v2, mat, True, cap, anchor_range)
        want = _run(compiled_walk, twin, True, cap, anchor_range)
        assert mat._anchors == twin._anchors
    else:
        live = _run(search._best_rectangle_bit_v2, mat, False, cap, anchor_range)
        want = _run(compiled_walk, mat, False, cap, anchor_range)
    assert live == want
    return live[2]


def _check_version(mat, reuse, rng):
    """Compare the walks on this matrix version: whole, under a cap
    below the full spend, and per stripe."""
    nodes = _compare(mat, reuse)
    if nodes > 1:
        _compare(mat, reuse, cap=rng.randint(1, nodes - 1))
    for bounds in column_stripe_bounds(mat, STRIPES):
        if bounds is not None:
            _compare(mat, reuse, anchor_range=bounds)
    return nodes


def _replace_nodes_versions(seed, with_owner):
    """Yield each version of a matrix patched by random kernel diffs."""
    rng = random.Random(seed)
    pool = [_random_kernel(rng) for _ in range(12)]
    names = ["a", "b", "ba", "c", "d\x00"]
    owner = {n: rng.randint(0, 2) for n in names} if with_owner else None
    inc = IncrementalKCMatrix({n: _random_list(rng, pool) for n in names[:3]}, owner=owner)
    yield inc.matrix
    for _ in range(10):
        changes = {n: _random_list(rng, pool) for n in rng.sample(names, rng.randint(1, 3))}
        if with_owner and rng.random() < 0.3:
            owner[rng.choice(sorted(changes))] = rng.randint(0, 2)
        inc.replace_nodes(changes)
        yield inc.matrix


def _mutator_versions(seed):
    """Yield each version of a hand-built matrix under random mutations."""
    rng = random.Random(seed)
    mat = KCMatrix()
    next_label = [0]
    for step in range(60):
        _mutate(mat, rng, next_label, OPS + ["relabel_row"] * 2)
        if step >= 10 and step % 2:
            yield mat


@pytest.mark.parametrize("reuse", [False, True])
@pytest.mark.parametrize("seed", range(8))
def test_replace_nodes_sequences_match_the_compiled_walk(seed, reuse):
    rng = random.Random(seed + 500)
    nodes = sum(
        _check_version(mat, reuse, rng)
        for mat in _replace_nodes_versions(seed, with_owner=seed % 2 == 1)
    )
    assert nodes > 0


@pytest.mark.parametrize("reuse", [False, True])
@pytest.mark.parametrize("seed", range(8))
def test_mutator_sequences_match_the_compiled_walk(seed, reuse):
    rng = random.Random(seed + 900)
    nodes = sum(_check_version(mat, reuse, rng) for mat in _mutator_versions(seed))
    assert nodes > 0


def test_reuse_replays_anchors_in_both_walks():
    # The record comparison has teeth: patched versions replay anchors.
    replayed = 0
    for mat in _replace_nodes_versions(3, with_owner=False):
        twin = copy.deepcopy(mat)
        got = _run(search._best_rectangle_bit_v2, mat, True)
        assert got == _run(compiled_walk, twin, True)
        replayed += got[1]["replayed"]
    assert replayed > 0


# ----------------------------------------------------------------------
# The label-order tables against the compile
# ----------------------------------------------------------------------

def _table_form(mat):
    """The label-order tables, keyed by labels."""
    tables = mat.search_tables()
    rows = mat.row_labels
    cols = mat.col_labels
    values = mat.value_table()
    row_slots = [info.slot for info in mat.rows.values()]
    return {
        "anchors": tables.anchors,
        "slots": [mat.col_pos[lab] for lab in tables.anchors] == tables.anchor_slots,
        "above": {cols[s]: {cols[a] for a in iter_bits(tables.above[s])}
                  for s in mat.col_pos.values()},
        "suffix": {rows[r]: (tables.suf_labels[r], tables.suf_sums[r])
                   for r in row_slots},
        "clean": {rows[r] for r in iter_bits(tables.clean)},
        "dominated": {cols[s] for s in iter_bits(tables.dominated)},
        "dup": {rows[r] for r in tables.dup_rows},
        "values": {(rows[r], cols[c]): values[eid]
                   for r in row_slots for c, eid in mat.row_cells[r].items()},
    }


def _compile_form(mat):
    """The same tables, from a fresh sorted compilation."""
    view = BitKCView(mat)
    rows = view.row_labels
    cols = view.col_labels
    neg_above = view.neg_above()
    suf_cols, suf_sums = view.suffix_potentials()
    values = view.value_table()
    everything = (1 << len(cols)) - 1
    return {
        "anchors": cols,
        "slots": True,
        "above": {cols[p]: {cols[q] for q in iter_bits(neg_above[p] & everything)}
                  for p in range(len(cols))},
        "suffix": {rows[r]: ([cols[p] for p in suf_cols[r]], suf_sums[r])
                   for r in range(len(rows))},
        "clean": {rows[r] for r in iter_bits(view.clean_rows_mask())},
        "dominated": {cols[p] for p in iter_bits(view.dominated_anchors())},
        "dup": {rows[r] for r in view.dup_rows()},
        "values": {(rows[r], cols[c]): values[eid]
                   for r in range(len(rows)) for c, eid in view.cells[r].items()},
    }


@pytest.mark.parametrize("seed", range(6))
def test_label_tables_match_the_compile(seed):
    dominated = 0
    versions = list(_mutator_versions(seed))
    for mat in _replace_nodes_versions(seed, with_owner=False):
        assert _table_form(mat) == _compile_form(mat)
        dominated += bool(mat.search_tables().dominated)
    for mat in versions:
        assert _table_form(mat) == _compile_form(mat)
    assert dominated


def test_tables_are_derived_once_per_version():
    mat = next(_replace_nodes_versions(0, with_owner=False))
    tables = mat.search_tables()
    for bounds in column_stripe_bounds(mat, STRIPES):
        search.best_rectangle_exhaustive(mat, anchor_range=bounds)
        assert mat.search_tables() is tables
    mat.relabel_col(max(mat.cols), max(mat.cols) + 1)
    assert mat.search_tables() is not tables


# ----------------------------------------------------------------------
# Walks that read an order from slots must be caught
# ----------------------------------------------------------------------

MUTANTS = {
    "branch children in slot order": (
        "branch.append((col_labels[cpos], cpos))", "branch.append((cpos, cpos))",
    ),
    "rightwards filter by slot": (
        "cand_all & above[add_cpos] & ~cols_mask",
        "cand_all & -(1 << (add_cpos + 1)) & ~cols_mask",
    ),
    "ties to the later rectangle": (
        "if not found or gain > best_gain:\n                            found = True",
        "if not found or gain >= best_gain:\n                            found = True",
    ),
}


def _mutant(name):
    old, new = MUTANTS[name]
    src = inspect.getsource(search._best_rectangle_bit_v2)
    assert src.count(old) == 1, f"mutation site for {name!r} not found"
    namespace = dict(vars(search))
    exec(compile(src.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace["_best_rectangle_bit_v2"]


def _caught() -> bool:
    """Whether any walk comparison of this module fails."""
    for seed in range(8):
        rng = random.Random(seed)
        versions = list(_replace_nodes_versions(seed, with_owner=seed % 2 == 1))
        versions += list(_mutator_versions(seed))
        for mat in versions:
            try:
                _check_version(mat, False, rng)
            except AssertionError:
                return True
    return False


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_slot_order_mutants_are_caught(name):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_best_rectangle_bit_v2", _mutant(name))
        assert _caught(), f"mutant {name!r} survived"
    assert not _caught()
