"""The one KC store against the dict reference model.

``KCMatrix`` keeps its cells only in its bitset store.  Every random
mutation sequence here runs on a matrix and on
:class:`~tests.rectangles.kc_reference.ReferenceKC` (the dict
bookkeeping the matrix used to keep next to the bitsets), and after
every step the store's label-keyed views — cells from the cell table,
row and column adjacency from the two bitmasks, ``overlap_rows`` and
``num_entries`` — must equal the model's dicts.  The steps cover every
mutator (``add_entries`` included), both relabels and
``submatrix_columns``.

The mutant tests run the comparison with audits off and show it
catches, on its own, a relabel that leaves a slot's label behind and a
removal that leaves a bit in the other side's mask.
"""

from __future__ import annotations

import inspect
import random
import textwrap
from typing import Dict, List

import pytest

from repro.algebra.cube import cube
from repro.rectangles.bitview import iter_bits
from repro.rectangles.kcmatrix import KCMatrix
from repro.verify import audit
from tests.rectangles.kc_reference import ReferenceKC

NODES = ("n0", "n1", "n2", "n3")


def store_views(mat: KCMatrix) -> Dict[str, object]:
    """The store read back by label: cells from the cell table, each
    row's columns from its row mask and each column's rows from its
    column mask, plus the label maps it keeps."""
    cells = {}
    by_row = {}
    by_col = {}
    for row, info in mat.rows.items():
        rslot = info.slot
        by_row[row] = {mat.col_labels[c] for c in iter_bits(mat.row_cols[rslot])}
        for cslot, eid in mat.row_cells[rslot].items():
            cells[(row, mat.col_labels[cslot])] = mat.entry_cubes[eid]
    for col, cslot in mat.col_pos.items():
        by_col[col] = {mat.row_labels[r] for r in iter_bits(mat.col_rows[cslot])}
    return {
        "cells": cells,
        "by_row": by_row,
        "by_col": by_col,
        "rows": {r: (info.node, info.cokernel) for r, info in mat.rows.items()},
        "cols": dict(mat.cols),
        "col_of_cube": dict(mat.col_of_cube),
        "overlap_rows": dict(mat.overlap_rows),
        "num_entries": mat.num_entries,
        # The label reads agree with the store.
        "facade": (
            mat.cells(),
            {r: mat.cols_of_row(r) for r in mat.rows},
            {c: mat.rows_of_col(c) for c in mat.cols},
        ),
    }


def model_views(ref: ReferenceKC) -> Dict[str, object]:
    return {
        "cells": dict(ref.entries),
        "by_row": {r: set(cs) for r, cs in ref.by_row.items()},
        "by_col": {c: set(rs) for c, rs in ref.by_col.items()},
        "rows": {r: tuple(info) for r, info in ref.rows.items()},
        "cols": dict(ref.cols),
        "col_of_cube": dict(ref.col_of_cube),
        "overlap_rows": dict(ref.overlap_rows),
        "num_entries": len(ref.entries),
        "facade": (
            dict(ref.entries),
            {r: set(cs) for r, cs in ref.by_row.items()},
            {c: set(rs) for c, rs in ref.by_col.items()},
        ),
    }


class _Pair:
    """A matrix and its reference model, mutated in lockstep."""

    def __init__(self, rng: random.Random, labels: List[int]) -> None:
        self.mat = KCMatrix()
        self.ref = ReferenceKC()
        self.rng = rng
        self.labels = labels  # shared label counter

    def _label(self) -> int:
        self.labels[0] += 1
        return self.labels[0]

    def both(self, name: str, *args) -> None:
        getattr(self.mat, name)(*args)
        getattr(self.ref, name)(*args)

    def add_row(self) -> None:
        """A new row, with a batch of cells (repeats included) written
        by one ``add_entries``."""
        rng = self.rng
        label = self._label()
        self.both("add_row", label, rng.choice(NODES),
                  cube(rng.sample(range(1, 10), rng.randint(0, 2))))
        cols = [rng.choice(sorted(self.ref.cols)) for _ in range(rng.randint(0, 4) if self.ref.cols else 0)]
        self.mat.add_entries(label, cols)
        for c in cols:
            self.ref.add_entry(label, c)

    def ensure_col(self) -> int:
        rng = self.rng
        kc = cube(rng.sample(range(1, 12), rng.randint(1, 3)))
        label = self._label()
        got = self.mat.ensure_col(kc, lambda: label)
        assert self.ref.ensure_col(kc, lambda: label) == got
        return got

    def add_entries(self, k: int) -> None:
        rng = self.rng
        rows, cols = list(self.ref.rows), list(self.ref.cols)
        for _ in range(k if rows and cols else 0):
            self.both("add_entry", rng.choice(rows), rng.choice(cols))


def _step(pair: _Pair) -> str:
    rng = pair.rng
    ref = pair.ref
    op = rng.choice([
        "add_row", "add_row", "ensure_col", "ensure_col", "add_entry",
        "add_entry", "add_entry", "remove_row", "remove_col",
        "relabel_row", "relabel_col", "submatrix_columns",
    ])
    if op == "add_row":
        pair.add_row()
        pair.add_entries(rng.randint(0, 3))
    elif op == "ensure_col":
        pair.ensure_col()
        pair.add_entries(rng.randint(0, 3))
    elif op == "add_entry":
        pair.add_entries(1)
    elif op == "remove_row" and ref.rows:
        pair.both("remove_row", rng.choice(sorted(ref.rows)))
    elif op == "remove_col" and ref.cols:
        pair.both("remove_col", rng.choice(sorted(ref.cols)))
    elif op == "relabel_row" and ref.rows:
        # Labels move both ways, so slot order and label order diverge.
        new = pair._label() * rng.choice((1, -1))
        pair.both("relabel_row", rng.choice(sorted(ref.rows)), new)
    elif op == "relabel_col" and ref.cols:
        new = pair._label() * rng.choice((1, -1))
        pair.both("relabel_col", rng.choice(sorted(ref.cols)), new)
    elif op == "submatrix_columns" and len(ref.cols) > 2:
        keep = rng.sample(sorted(ref.cols), len(ref.cols) * 2 // 3)
        pair.mat = pair.mat.submatrix_columns(keep)
        pair.ref = pair.ref.submatrix_columns(keep)
    return op


def _run_sequence(seed: int, steps: int = 120) -> None:
    pair = _Pair(random.Random(seed), [0])
    for i in range(steps):
        op = _step(pair)
        got = store_views(pair.mat)
        want = model_views(pair.ref)
        for key in want:
            assert got[key] == want[key], f"seed {seed} step {i} ({op}): {key} differs"


@pytest.mark.parametrize("seed", range(24))
def test_random_mutations_match_the_dict_model(seed):
    _run_sequence(seed)


def test_every_step_kind_runs():
    kinds = set()
    for seed in range(24):
        pair = _Pair(random.Random(seed), [0])
        for _ in range(120):
            kinds.add(_step(pair))
    assert kinds == {
        "add_row", "ensure_col", "add_entry", "remove_row", "remove_col",
        "relabel_row", "relabel_col", "submatrix_columns",
    }


# ----------------------------------------------------------------------
# Mutants of the store the comparison must catch
# ----------------------------------------------------------------------

MUTANTS = {
    "relabel_row leaves the slot's label": (
        "relabel_row", "self.row_labels[info.slot] = new", "pass",
    ),
    "relabel_col leaves the slot's label": (
        "relabel_col", "self.col_labels[slot] = new", "pass",
    ),
    "remove_row leaves a bit in its columns' masks": (
        "remove_row", "col_rows[cslot] &= keep", "pass",
    ),
    "remove_col leaves a bit in its rows' masks": (
        "remove_col", "row_cols[rslot] &= keep", "pass",
    ),
}


def _mutant(name):
    attr, old, new = MUTANTS[name]
    src = textwrap.dedent(inspect.getsource(getattr(KCMatrix, attr)))
    assert src.count(old) == 1, f"mutation site for {name!r} not found"
    namespace = dict(vars(inspect.getmodule(KCMatrix)))
    exec(compile(src.replace(old, new), "<mutant>", "exec"), namespace)
    return attr, namespace[attr]


def _caught() -> bool:
    for seed in range(24):
        try:
            _run_sequence(seed)
        except (AssertionError, KeyError, IndexError, TypeError):
            return True
    return False


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutants_are_caught(name):
    attr, mutant = _mutant(name)
    prev = audit._enabled
    audit.set_audits(False)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(KCMatrix, attr, mutant)
            assert _caught(), f"mutant {name!r} survived"
        assert not _caught()
    finally:
        audit.set_audits(prev)
