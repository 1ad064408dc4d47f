"""The KC matrix's bitset store against a fresh compile and the dense walk.

The store is made with the matrix and then patched by every mutator.
Its rows and columns sit at stable slots, so slot order drifts away
from label order as rows are removed, slots reused and columns
relabelled.  Two contracts follow:

- after any mutation sequence the store, mapped back to labels, equals
  a fresh sorted compilation of the same matrix (the oracle
  :class:`tests.rectangles.compiled_walk.BitKCView`);
- the ping-pong walk on it takes every tie-break from labels, so every
  search returns what the old dense walk over a fresh compilation
  returned (kept as the oracle in :mod:`tests.rectangles.dense_pingpong`):
  the same ``(rect, gain)``, the same ``pingpong_round`` meter count and
  the same final network.

The mutant tests show the whole-run comparison catches the two ways a
slot-addressed walk can go wrong: a tie-break by slot, and seeds drawn
from freed slots.

The store's patched seed potentials (``row_pot``) must equal a full
recompute after any mutation sequence, and L-shaped, which searches
under its own value function, must never build them.
"""

from __future__ import annotations

import inspect
import random
from typing import Dict, List

import pytest

from repro.algebra.cube import cube
from repro.circuits.examples import paper_example_network
from repro.circuits.mcnc import make_circuit
from repro.machine.costmodel import CostMeter
from repro.network.eqn import write_eqn
from repro.parallel import lshaped
from repro.rectangles import pingpong
from repro.rectangles.bitview import iter_bits, popcount
from repro.rectangles.cover import apply_rectangle, kernel_extract, make_searcher
from repro.rectangles.kcmatrix import KCMatrix, build_kc_matrix
from repro.rectangles.rectangle import Rectangle
from repro.verify import audit
from repro.verify.generator import FAMILIES, random_network
from tests.rectangles.compiled_walk import BitKCView
from tests.rectangles.dense_pingpong import FullScanView, dense_ascents
from tests.rectangles.test_bitview_equivalence import random_kc_matrix


def _slots(view):
    """A bitset form's row slots by label, and its per-row cells: the
    matrix's own, or a compilation's."""
    if isinstance(view, KCMatrix):
        return {lab: info.slot for lab, info in view.rows.items()}, view.row_cells
    return view.row_pos, view.cells


def label_form(view) -> Dict[str, object]:
    """Everything a search reads from a bitset form, keyed by labels."""
    rows = {}
    cols = {}
    cells = {}
    values = view.value_table()
    row_pos, row_cells = _slots(view)
    for lab, r in row_pos.items():
        rows[lab] = (
            view.node_names[view.row_node[r]],
            view.row_cost[r],
            frozenset(view.col_labels[c] for c in iter_bits(view.row_cols[r])),
        )
        for c, eid in row_cells[r].items():
            cells[(lab, view.col_labels[c])] = (view.entry_cubes[eid], values[eid])
    for lab, c in view.col_pos.items():
        cols[lab] = (
            view.col_cost[c],
            frozenset(view.row_labels[r] for r in iter_bits(view.col_rows[c])),
        )
    dup = {view.row_labels[r] for r in view.dup_rows()}
    return {"rows": rows, "cols": cols, "cells": cells, "dup": dup,
            "entries": view.num_entries}


def recomputed_potentials(mat: KCMatrix) -> List[int]:
    """Every slot's seed potential, recomputed from scratch under the
    values the matrix maintains."""
    values = mat.value_table(mat.value_source)
    shar1 = [popcount(mask) - 1 for mask in mat.col_rows]
    return [
        sum(shar1[c] * values[eid] for c, eid in rcells.items())
        for rcells in mat.row_cells
    ]


# ----------------------------------------------------------------------
# Random mutation sequences
# ----------------------------------------------------------------------

OPS = ["add_row", "add_row", "add_col", "add_entry", "add_entry",
       "remove_row", "remove_col", "relabel_col"]


def _mutate(mat: KCMatrix, rng: random.Random, next_label: List[int], ops=OPS) -> str:
    """Apply one random mutation; return its name."""
    op = rng.choice(ops)
    if op == "add_row":
        next_label[0] += 1
        node = f"n{rng.randint(0, 3)}"
        mat.add_row(next_label[0], node, cube(rng.sample(range(1, 9), rng.randint(0, 2))))
        cols = list(mat.cols)
        for c in rng.sample(cols, min(len(cols), rng.randint(0, 4))):
            mat.add_entry(next_label[0], c)
    elif op == "add_col":
        next_label[0] += 1
        label = next_label[0]
        c = mat.ensure_col(cube(rng.sample(range(1, 12), rng.randint(1, 3))), lambda: label)
        rows = list(mat.rows)
        for r in rng.sample(rows, min(len(rows), rng.randint(0, 4))):
            mat.add_entry(r, c)
    elif op == "add_entry" and mat.rows and mat.cols:
        mat.add_entry(rng.choice(list(mat.rows)), rng.choice(list(mat.cols)))
    elif op == "remove_row" and mat.rows:
        mat.remove_row(rng.choice(list(mat.rows)))
    elif op == "remove_col" and mat.cols:
        mat.remove_col(rng.choice(list(mat.cols)))
    elif op == "relabel_col" and mat.cols:
        # Labels move both ways, so slot order and label order diverge.
        next_label[0] += 1
        new = rng.choice([next_label[0], -next_label[0]])
        mat.relabel_col(rng.choice(list(mat.cols)), new)
    elif op == "relabel_row" and mat.rows:
        next_label[0] += 1
        new = rng.choice([next_label[0], -next_label[0]])
        mat.relabel_row(rng.choice(list(mat.rows)), new)
    return op


@pytest.mark.parametrize("seed", range(25))
def test_mutation_sequences_match_a_fresh_compile(seed):
    rng = random.Random(seed)
    mat = KCMatrix()
    next_label = [0]
    peak_rows = peak_cols = 0
    for step in range(86):
        _mutate(mat, rng, next_label)
        peak_rows = max(peak_rows, mat.num_rows)
        peak_cols = max(peak_cols, mat.num_cols)
        if step < 6:
            continue
        assert label_form(mat) == label_form(BitKCView(mat))
        audit.audit_store(mat)
        audit.audit_kcmatrix(mat)
        # Freed slots are reused lowest first: the width stays bounded
        # by the largest live count.
        assert len(mat.row_labels) <= peak_rows
        assert len(mat.col_labels) <= peak_cols


@pytest.mark.parametrize("seed", range(25))
def test_patched_potentials_match_a_recompute(seed):
    # Row relabels and slot reuse included: row_pot is per slot, so
    # neither may disturb it.
    rng = random.Random(seed)
    mat = KCMatrix()
    next_label = [0]
    for _ in range(6):
        _mutate(mat, rng, next_label)
    assert mat.row_pot is None
    pot = mat.potentials()
    assert pot == recomputed_potentials(mat)
    seen = set()
    for _ in range(40):
        # Several mutations between two reads: a column touched more
        # than once is settled once.
        for _ in range(rng.randint(1, 3)):
            seen.add(_mutate(mat, rng, next_label, OPS + ["relabel_row"] * 2))
            audit.audit_store(mat)
        assert mat.potentials() is pot
        assert pot == recomputed_potentials(mat)
        assert label_form(mat) == label_form(BitKCView(mat))
        audit.audit_kcmatrix(mat)
    assert {"relabel_row", "remove_row", "add_row"} <= seen


def test_audit_catches_a_stale_potential():
    mat = random_kc_matrix(1)
    mat.potentials()
    audit.audit_store(mat)
    mat.row_pot[mat.rows[min(mat.rows)].slot] += 1
    with pytest.raises(audit.InvariantViolation):
        audit.audit_store(mat)
    # A column whose size changed must be marked for settling.
    mat.row_pot[mat.rows[min(mat.rows)].slot] -= 1
    mat.remove_row(max(mat.rows))
    audit.audit_store(mat)
    mat._pot_dirty.clear()
    with pytest.raises(audit.InvariantViolation):
        audit.audit_store(mat)


def test_relabel_row_moves_every_index():
    mat = random_kc_matrix(2)
    old = min(mat.rows)
    info = mat.rows[old]
    cols = set(mat.cols_of_row(old))
    mat.relabel_row(old, old + 10_000)
    assert mat.rows[old + 10_000] == info
    assert mat.cols_of_row(old + 10_000) == cols
    assert all(mat.has_entry(old + 10_000, c) for c in cols)
    assert all(old not in mat.rows_of_col(c) for c in cols)
    assert mat.rows[old + 10_000].slot == info.slot and old not in mat.rows
    assert mat.row_labels[info.slot] == old + 10_000
    audit.audit_kcmatrix(mat)
    audit.audit_store(mat)
    with pytest.raises(ValueError):
        mat.relabel_row(old + 10_000, max(mat.rows))


def test_freed_slot_is_reused_lowest_first():
    mat = random_kc_matrix(3)
    labels = sorted(mat.rows)
    slots = sorted(mat.rows[lab].slot for lab in labels[1:4])
    for lab in labels[1:4]:
        mat.remove_row(lab)
    mat.add_row(999, "n9", (1,))
    assert mat.rows[999].slot == slots[0]
    assert len(mat.row_labels) == len(labels)


@pytest.mark.parametrize("seed", range(12))
def test_overlap_counts_find_the_same_dup_rows_as_a_full_scan(seed):
    # Hand-built matrices whose column cubes overlap co-kernels: the
    # overlap counts must flag exactly the rows a full scan flags, on
    # the fresh matrix and after removals.
    mat = random_kc_matrix(seed)
    for _ in range(2):
        for form in (mat, BitKCView(mat)):
            got = {form.row_labels[r] for r in form.dup_rows()}
            full = FullScanView(mat)
            assert got == {full.row_labels[r] for r in full.dup_rows()}
        mat.remove_col(max(mat.cols))
        mat.remove_row(min(mat.rows))


# ----------------------------------------------------------------------
# apply_rectangle reads the live slots
# ----------------------------------------------------------------------

def _covered(net_factory, mutate):
    """Extract the best rectangle from the store as *mutate* leaves it;
    return the network and the same extraction via a fresh replica."""
    net = net_factory()
    sparse = net.copy()
    mat = build_kc_matrix(net)
    mutate(mat)
    for rect, _ in pingpong.pingpong_candidates(mat):
        assert mat.covered_cubes_by_node(rect) == BitKCView(mat).covered_cubes_by_node(rect)
    best = pingpong.best_rectangle_pingpong(mat)
    assert best is not None
    apply_rectangle(net, mat, best[0], gain=best[1])
    # A replica under the same labels, stored without slot history.
    apply_rectangle(sparse, _replica(mat), best[0], gain=best[1])
    return write_eqn(net), write_eqn(sparse)


def _replica(mat: KCMatrix) -> KCMatrix:
    """*mat*'s rows, columns and cells, added afresh in label order."""
    out = KCMatrix()
    for lab in sorted(mat.rows):
        out.add_row(lab, mat.rows[lab].node, mat.rows[lab].cokernel)
    for lab in sorted(mat.cols):
        out.ensure_col(mat.cols[lab], lambda: lab)
    for r, c in sorted(mat.cells()):
        out.add_entry(r, c)
    return out


def _relabel_every_col(mat):
    for lab in sorted(mat.cols, reverse=True):
        mat.relabel_col(lab, -lab)


def _reuse_a_slot(mat):
    lab = min(mat.rows)
    info = mat.rows[lab]
    cols = sorted(mat.cols_of_row(lab))
    mat.remove_row(lab)
    mat.add_row(lab + 10_000, info.node, info.cokernel)
    for c in cols:
        mat.add_entry(lab + 10_000, c)


@pytest.mark.parametrize("mutate", [_relabel_every_col, _reuse_a_slot])
def test_apply_rectangle_after_relabel_and_slot_reuse(mutate):
    live, sparse = _covered(paper_example_network, mutate)
    assert live == sparse


# ----------------------------------------------------------------------
# Whole runs: live walk vs the dense walk
# ----------------------------------------------------------------------

def _seq_run(network):
    """kernel_extract, recording every search's answer."""
    net = network.copy()
    meter = CostMeter()
    search = make_searcher("pingpong", meter=meter, max_seeds=64)
    answers = []

    def recording(matrix):
        got = search(matrix)
        answers.append(got)
        return got

    kernel_extract(net, searcher=recording, meter=meter)
    return answers, meter.counts.get("pingpong_round"), write_eqn(net)


def _lshaped_run(network, nprocs):
    """L-shaped, recording every search's answer and round charges."""
    answers = []
    real = lshaped.best_rectangle_pingpong

    def recording(mat, meter=None, **kw):
        before = meter.counts.get("pingpong_round", 0)
        got = real(mat, meter=meter, **kw)
        answers.append((got, meter.counts.get("pingpong_round", 0) - before))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lshaped, "best_rectangle_pingpong", recording)
        res = lshaped.lshaped_kernel_extract(network, nprocs=nprocs)
    return answers, write_eqn(res.network), res.parallel_time


def _with_dense_walk(fn, *args, **kw):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pingpong, "_ascents_bit", dense_ascents)
        return fn(*args, **kw)


def _assert_matches_dense_walk(fn, *args):
    live = fn(*args)
    assert live == _with_dense_walk(fn, *args)
    return live


@pytest.mark.parametrize("family", FAMILIES)
def test_fuzz_families_match_dense_walk(family):
    searches = 0
    for seed in range(20):
        answers, _, _ = _assert_matches_dense_walk(
            _seq_run, random_network(seed, family)
        )
        searches += len(answers)
    assert searches >= 20


@pytest.mark.parametrize("name,scale", [("misex3", 0.15), ("dalu", 0.1)])
def test_mcnc_recipes_match_dense_walk(name, scale):
    answers, rounds, _ = _assert_matches_dense_walk(
        _seq_run, make_circuit(name, scale=scale)
    )
    assert len(answers) >= 4 and rounds


@pytest.mark.parametrize("nprocs", [2, 4])
def test_lshaped_matches_dense_walk(nprocs):
    # Answers, eqn and the simulated clock all match.
    live = _assert_matches_dense_walk(
        _lshaped_run, make_circuit("dalu", scale=0.1), nprocs
    )
    assert len(live[0]) >= nprocs


def test_lshaped_potentials_follow_its_cube_state_view():
    # L-shaped searches under its processor's cube-state view, bound to
    # the per-cycle matrix, so the potentials it reads are patched under
    # those values — never the default ones — and match a recompute.
    searched = []
    real = lshaped.best_rectangle_pingpong

    def recording(mat, value_fn=None, **kw):
        got = real(mat, value_fn=value_fn, **kw)
        searched.append(value_fn)
        assert mat.value_source is value_fn
        assert mat.row_pot == recomputed_potentials(mat)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lshaped, "best_rectangle_pingpong", recording)
        lshaped.lshaped_kernel_extract(make_circuit("dalu", scale=0.1), nprocs=2)
    assert searched and all(
        vf is not None and vf is not pingpong.default_value for vf in searched
    )


def test_sequential_runs_read_patched_potentials():
    # The default-value search builds row_pot once; every later search
    # of the run reads the same, patched table.
    search = make_searcher("pingpong", max_seeds=64)
    tables = []

    def recording(matrix):
        got = search(matrix)
        tables.append(matrix.row_pot)
        return got

    kernel_extract(make_circuit("misex3", scale=0.1), searcher=recording)
    assert len(tables) >= 4
    assert all(t is tables[0] for t in tables)


def test_audited_run_checks_the_patched_index():
    # Under REPRO_CHECK=1 every search audits the patched store.
    audit.set_audits(True)
    try:
        live = _seq_run(make_circuit("misex3", scale=0.1))
    finally:
        audit.set_audits(None)
    assert live == _with_dense_walk(_seq_run, make_circuit("misex3", scale=0.1))


# ----------------------------------------------------------------------
# Mutants the comparison must catch
# ----------------------------------------------------------------------

MUTANTS = {
    "fallback tie-broken by slot": (
        "scored.sort(key=lambda cs: (-cs[0], col_labels[cs[1]]))",
        "scored.sort(key=lambda cs: (-cs[0], cs[1]))",
    ),
    "seeds drawn from freed slots": (
        "(-potential[r], lab, r) for r, lab in enumerate(row_labels) if lab is not None",
        "(-potential[r], lab or 0, r) for r, lab in enumerate(row_labels)",
    ),
}


def _mutant(name):
    old, new = MUTANTS[name]
    src = inspect.getsource(pingpong._ascents_bit)
    assert src.count(old) == 1, f"mutation site for {name!r} not found"
    namespace = dict(vars(pingpong))
    exec(compile(src.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace["_ascents_bit"]


def _runs_differ(mutant) -> bool:
    """Whether whole fuzz runs under *mutant* differ from the real walk."""
    for seed in range(20):
        for family in FAMILIES:
            net = random_network(seed, family)
            want = _seq_run(net)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pingpong, "_ascents_bit", mutant)
                if _seq_run(net) != want:
                    return True
    return False


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutants_are_caught(name):
    assert _runs_differ(_mutant(name)), f"mutant {name!r} survived"


def test_fallback_tie_follows_labels_not_slots():
    # Columns inserted with descending labels sit at ascending slots.
    # Seed row 1 sees three columns tie at contribution 0, so only the
    # keep-top-2 fallback picks columns: by label it keeps {30, 40},
    # a dead end; by slot it keeps {50, 40}, which row 2 shares.
    mat = KCMatrix()
    mat.add_row(1, "f", ())
    mat.add_row(2, "f", (9,))
    a, b, c = (mat.ensure_col(kc, lambda lab=lab: lab)
               for kc, lab in (((1, 2, 3), 50), ((4, 5, 6), 40), ((7, 8, 10), 30)))
    for col in (a, b, c):
        mat.add_entry(1, col)
    for col in (a, b):
        mat.add_entry(2, col)
    assert mat.col_pos[a] < mat.col_pos[b] < mat.col_pos[c]
    args = (mat, lambda node, cb: 3, 2, None, 8, None)
    live = list(pingpong._ascents_bit(*args))
    assert live == list(dense_ascents(*args))
    assert live == [(Rectangle(rows=(1, 2), cols=(40, 50)), 3)]
    mutant = _mutant("fallback tie-broken by slot")
    assert list(mutant(*args)) != live
