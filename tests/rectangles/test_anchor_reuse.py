"""Replayed exhaustive-search anchors against searches from scratch.

An exhaustive search keeps, per anchor column, what its subtree walk
spent and found (``KCMatrix.anchor_records``), and the next search
replays every anchor the matrix's mutators have not marked since, when
the anchor is still undominated and its entry incumbent is the recorded
one.  A stale replay rarely changes the best rectangle, so every search
here is compared on its own against a search of a ``_touch()``ed copy
of the matrix, which keeps no records:

- the rectangle and gain, the ``search_node`` charge and every trace
  counter the search adds;
- per column stripe, as the replicated algorithm searches;
- under a node cap: whether the budget runs out, and its spend and
  charge when it does;

after random batches of row and column adds and removals, entries and
relabels both ways, and on hand-built matrices where an anchor turns
dominated while its record stays clean, where an anchor's entry
incumbent moves while its subtree stays clean, and where a relabel
flips a tie or moves a row of the winner.

One mutant per mark of the reuse rule must each be caught with the
``REPRO_CHECK=1`` replay audit off, and the audit must reject a
corrupted record.
"""

from __future__ import annotations

import copy
import gc
import inspect
import random
import textwrap
import weakref

import pytest

from repro.circuits.mcnc import make_circuit
from repro.machine.costmodel import CostMeter
from repro.obs.tracer import Tracer, use_tracer
from repro.parallel.replicated import replicated_kernel_extract
from repro.rectangles import search
from repro.rectangles.cover import kernel_extract
from repro.rectangles.kcmatrix import KCMatrix, build_kc_matrix
from repro.rectangles.rectangle import Rectangle
from repro.rectangles.search import (
    BudgetExceeded,
    SearchBudget,
    best_rectangle_exhaustive,
    column_stripe_bounds,
)
from repro.verify import audit
from tests.rectangles.test_live_bitview import OPS, _mutate

ALL_OPS = OPS + ["relabel_row"] * 2
REPLAYED = "rect_search_anchors_replayed"


def _search(mat, anchor_range=None, budget=None):
    """One search: (answer or "exhausted", search_node charge, counters)."""
    meter = CostMeter()
    tracer = Tracer()
    with use_tracer(tracer), tracer.span("search") as sp:
        try:
            got = best_rectangle_exhaustive(
                mat, budget=budget, meter=meter, anchor_range=anchor_range
            )
        except BudgetExceeded:
            got = "exhausted"
    return got, meter.counts.get("search_node", 0), dict(sp.counters)


def _scratch(mat):
    """A copy of *mat* with its bitset forms and records dropped."""
    fresh = copy.deepcopy(mat)
    fresh._touch()
    return fresh


def _assert_matches_scratch(mat, anchor_range=None, cap=None):
    """Search *mat* and a from-scratch copy; return the counters."""
    scratch = _scratch(mat)
    budgets = [None, None] if cap is None else [SearchBudget(cap), SearchBudget(cap)]
    got, nodes, counters = _search(mat, anchor_range, budgets[0])
    want, want_nodes, want_counters = _search(scratch, anchor_range, budgets[1])
    assert got == want
    assert nodes == want_nodes
    if cap is not None:
        assert budgets[0].used == budgets[1].used
    if got != "exhausted":
        assert counters["search_node_visit"] == nodes
        replayed = counters.pop(REPLAYED)
        assert want_counters.pop(REPLAYED) == 0
        assert counters == want_counters
        counters[REPLAYED] = replayed
    return counters


def _check_step(mat, rng):
    """The checks after one batch: whole, by stripes, and under a cap;
    return the anchors replayed."""
    replayed = _assert_matches_scratch(mat)[REPLAYED]
    for bounds in column_stripe_bounds(mat, rng.randint(2, 4)):
        if bounds is not None:
            replayed += _assert_matches_scratch(mat, bounds)[REPLAYED]
    _, nodes, _ = _search(_scratch(mat))
    if nodes:
        _assert_matches_scratch(mat, cap=rng.randint(0, int(nodes)))
    return replayed


def _random_sequence(seed):
    """Random mutation batches, each followed by checked searches;
    return the anchors replayed."""
    rng = random.Random(seed)
    mat = KCMatrix()
    next_label = [0]
    for _ in range(12):
        _mutate(mat, rng, next_label, ALL_OPS)
    replayed = 0
    for _ in range(25):
        replayed += _check_step(mat, rng)
        for _ in range(rng.randint(1, 3)):
            _mutate(mat, rng, next_label, ALL_OPS)
    return replayed


@pytest.mark.parametrize("seed", range(16))
def test_random_mutation_batches_match_a_search_from_scratch(seed):
    # The comparisons covered replays, not only walks.
    assert _random_sequence(seed) > 0


def _add_col(mat, label, kc, rows):
    mat.ensure_col(kc, lambda: label)
    for row in rows:
        mat.add_entry(row, label)


def _turns_dominated():
    """Node f is unclean while rows 1 and 2 both name cube (1, 2, 3),
    so column 10 does not dominate columns 30 and 50 (rows {1} each).
    Removing row 2 marks only its column 40 — the records of 30 and 50
    stay clean — and makes f clean: both turn dominated."""
    mat = KCMatrix()
    mat.add_row(1, "f", (1,))
    mat.add_row(2, "f", (2,))
    mat.add_row(3, "g", (9,))
    _add_col(mat, 10, (5, 6), [1, 3])
    _add_col(mat, 30, (7, 8), [1])
    _add_col(mat, 40, (1, 3), [2])
    _add_col(mat, 50, (2, 3), [1])
    first = _assert_matches_scratch(mat)
    mat.remove_row(2)
    counters = _assert_matches_scratch(mat)
    assert counters["rect_search_dominance_skips"] > first["rect_search_dominance_skips"]
    return counters


def test_an_anchor_turning_dominated_is_skipped_not_replayed():
    _turns_dominated()


def _entry_moves():
    """Anchor 20's subtree (rows 4 and 5) never changes; rows joining
    anchor 10 raise the incumbent anchor 20 is entered with."""
    mat = KCMatrix()
    for row, node, cok in ((1, "a", (1,)), (2, "b", (2,)),
                           (4, "d", (4,)), (5, "e", (5,))):
        mat.add_row(row, node, cok)
    _add_col(mat, 10, (11, 12), [1, 2])
    _add_col(mat, 15, (13, 14), [1, 2])
    _add_col(mat, 20, (21, 22), [4, 5])
    _add_col(mat, 25, (23, 24), [4, 5])
    _add_col(mat, 27, (25,), [4])
    _assert_matches_scratch(mat)
    for row, node in ((6, "x"), (7, "y"), (8, "z")):
        mat.add_row(row, node, (row,))
        mat.add_entry(row, 10)
        mat.add_entry(row, 15)
    counters = _assert_matches_scratch(mat)
    # Anchors 15, 25 and 27 are dominated and anchor 10 changed: only
    # anchor 20 could replay, but it is entered with cut 16 instead of
    # 4, and its bound (8) now prunes it at its root.
    assert counters[REPLAYED] == 0
    return counters


def test_an_anchor_entered_with_a_new_incumbent_is_walked():
    _entry_moves()


def _relabel_flips_a_tie():
    """Anchor 20 holds two rectangles of gain 4, {20, 30} x {1, 2} and
    {20, 40} x {2, 3}; the smaller column tuple wins.  Moving column 30
    above 40 flips the winner while no row or cell changes."""
    mat = KCMatrix()
    for row, node in ((1, "a"), (2, "b"), (3, "c")):
        mat.add_row(row, node, (row,))
    _add_col(mat, 20, (21, 22), [1, 2, 3])
    _add_col(mat, 30, (31, 32), [1, 2])
    _add_col(mat, 40, (41, 42), [2, 3])
    got, _, _ = _search(mat)
    assert got == (Rectangle(rows=(1, 2), cols=(20, 30)), 4)
    mat.relabel_col(30, 50)
    got, _, _ = _search(_scratch(mat))
    assert got == (Rectangle(rows=(2, 3), cols=(20, 40)), 4)
    counters = _assert_matches_scratch(mat)
    assert counters[REPLAYED] == 0
    return counters


def test_a_relabel_that_flips_a_tie_walks_the_anchor():
    _relabel_flips_a_tie()


def _relabel_moves_a_row():
    """Row 1 of the winning rectangle moves to label 5."""
    mat = KCMatrix()
    for row, node in ((1, "a"), (2, "b")):
        mat.add_row(row, node, (row,))
    _add_col(mat, 10, (11, 12), [1, 2])
    _add_col(mat, 20, (21, 22), [1, 2])
    _assert_matches_scratch(mat)
    mat.relabel_row(1, 5)
    counters = _assert_matches_scratch(mat)
    got, _, _ = _search(mat)
    assert got[0].rows == (2, 5)
    return counters


def test_a_relabelled_row_leaves_under_its_new_label():
    _relabel_moves_a_row()


def test_unchanged_matrix_replays_every_walked_anchor():
    mat = build_kc_matrix(make_circuit("misex3", scale=0.1))
    _assert_matches_scratch(mat)
    counters = _assert_matches_scratch(mat)
    walked = sum(1 for c in mat.cols if mat.rows_of_col(c)) - counters[
        "rect_search_dominance_skips"
    ]
    assert counters[REPLAYED] == walked


def test_changed_min_cols_walks_every_anchor():
    mat = build_kc_matrix(make_circuit("misex3", scale=0.1))
    best_rectangle_exhaustive(mat, min_cols=2)
    tracer = Tracer()
    with use_tracer(tracer), tracer.span("search") as sp:
        best_rectangle_exhaustive(mat, min_cols=3)
    assert sp.counters[REPLAYED] == 0


def test_runs_count_replays_on_their_spans():
    # A replicated run replays anchors, and every search span says how
    # many beside the nodes it visited.
    tracer = Tracer()
    with use_tracer(tracer), tracer.span("job"):
        replicated_kernel_extract(make_circuit("dalu", scale=0.1), 4)
    spans = [sp for sp in tracer.finished() if REPLAYED in sp.counters]
    assert spans and all("search_node_visit" in sp.counters for sp in spans)
    assert sum(sp.counters[REPLAYED] for sp in spans) > 0


def test_records_are_freed_without_the_cycle_collector():
    # Records hold labels, counts and rectangles only: a finished run's
    # matrices go by reference counting alone.
    matrices = []
    real = search._best_rectangle_bit_v2

    def recording(matrix, *args, **kwargs):
        matrices.append(weakref.ref(matrix))
        return real(matrix, *args, **kwargs)

    gc.disable()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_best_rectangle_bit_v2", recording)
            replicated_kernel_extract(make_circuit("dalu", scale=0.1), 4)
            kernel_extract(make_circuit("misex3", scale=0.1), searcher="exhaustive")
        assert matrices and all(ref() is None for ref in matrices)
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# The REPRO_CHECK=1 replay audit
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "field", [1, 2, 3, 4], ids=["nodes", "pruned", "forced", "evaluated"]
)
def test_audit_rejects_a_corrupted_record(field):
    mat = build_kc_matrix(make_circuit("misex3", scale=0.1))
    best_rectangle_exhaustive(mat)
    records = mat._anchors
    label = max(records, key=lambda lab: records[lab][1])
    audit.set_audits(True)
    try:
        # Intact records pass the audit.
        best_rectangle_exhaustive(mat)
        rec = list(records[label])
        rec[field] += 1
        records[label] = tuple(rec)
        with pytest.raises(audit.InvariantViolation):
            best_rectangle_exhaustive(mat)
    finally:
        audit.set_audits(None)


def test_audit_rejects_a_corrupted_winner():
    mat = build_kc_matrix(make_circuit("misex3", scale=0.1))
    best_rectangle_exhaustive(mat)
    records = mat._anchors
    label = next(lab for lab, rec in records.items() if rec[5] is not None)
    rect, gain = records[label][5]
    records[label] = records[label][:5] + ((rect, gain + 1),)
    audit.set_audits(True)
    try:
        with pytest.raises(audit.InvariantViolation):
            best_rectangle_exhaustive(mat)
    finally:
        audit.set_audits(None)


# ----------------------------------------------------------------------
# Mutants of the reuse rule the comparisons must catch
# ----------------------------------------------------------------------

MUTANTS = {
    "row: add_entry does not mark its row": (
        KCMatrix, "add_entries", "self._anchor_rows.add(rslot)", "pass",
    ),
    "column: remove_row does not mark its columns": (
        KCMatrix, "remove_row",
        "self._anchor_cols.update(map(self.col_labels.__getitem__, rcells))", "pass",
    ),
    "column: remove_col does not mark its rows": (
        KCMatrix, "remove_col",
        "self._anchor_rows.update(iter_bits(rows))", "pass",
    ),
    "relabel: relabel_col does not mark its rows": (
        KCMatrix, "relabel_col",
        "self._anchor_rows.update(iter_bits(self.col_rows[slot]))", "pass",
    ),
    "relabel: relabel_row does not mark the row": (
        KCMatrix, "relabel_row", "self._anchor_rows.add(info.slot)", "pass",
    ),
    "dominance bit: a recorded anchor skips the dominance test": (
        search, "_best_rectangle_bit_v2",
        "if (dom_mask >> apos) & 1:",
        "if (dom_mask >> apos) & 1 and label not in records:",
    ),
    "cut: the entry incumbent is not compared": (
        search, "_best_rectangle_bit_v2", "and rec[0] == at", "",
    ),
}


def _mutant(name):
    owner, attr, old, new = MUTANTS[name]
    fn = getattr(owner, attr)
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1, f"mutation site for {name!r} not found"
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(compile(src.replace(old, new), "<mutant>", "exec"), namespace)
    return owner, attr, namespace[attr]


def _caught() -> bool:
    """Whether any check in this module fails."""
    checks = [_turns_dominated, _entry_moves, _relabel_flips_a_tie,
              _relabel_moves_a_row]
    checks += [(lambda seed=seed: _random_sequence(seed)) for seed in range(16)]
    for check in checks:
        try:
            check()
        except AssertionError:
            return True
    return False


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutants_are_caught(name):
    owner, attr, mutant = _mutant(name)
    # The comparisons must catch the mutant on their own, without the
    # replay audit re-walking every replayed anchor.
    audit.set_audits(False)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(owner, attr, mutant)
            assert _caught(), f"mutant {name!r} survived"
    finally:
        audit.set_audits(None)
    assert not _caught()
