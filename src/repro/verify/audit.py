"""Opt-in invariant audits (sanitizer-style, ``REPRO_CHECK=1``).

The rectangle searches and the speculative cube-state protocol maintain
redundant indexes for speed: ``KCMatrix`` keeps ``entries``/``by_row``/
``by_col``/``node_rows``/``col_of_cube``/``overlap_rows`` in lockstep,
patches a live bitset index of the whole structure
(:class:`~repro.rectangles.bitview.LiveBitIndex`), compiles a sorted
one for the exhaustive search
(:class:`~repro.rectangles.bitview.BitKCView`), and
:class:`~repro.parallel.cubestate.CubeStateStore` tracks per-cube
claims that must never double-cover.  A bug in any of that
bookkeeping silently corrupts factorization results long before an
equivalence check can localize it.

This module provides the checks and the switch.  Audits are **off by
default** — the hot paths pay one predicate call per mutation — and are
enabled process-wide by ``REPRO_CHECK=1`` in the environment (read once,
lazily) or :func:`set_audits` from code.  When enabled:

- every :class:`KCMatrix` mutator validates the delta it just applied
  (O(delta), not O(matrix)),
- splice-style bulk operations (``merge``, ``submatrix_columns``)
  validate the full structure,
- every ``KCMatrix.bitview()`` call checks the patched live index (its
  seed potentials included), and every sorted compilation checks
  itself, against the matrix dicts (sparse/bitview parity); a live
  index bound to a value source (the L-shaped cube-state view) has its
  patched value table checked against an uncharged recompute of every
  cell, so every L-shaped search checks the table it reads,
- every ping-pong seed ascent replayed from the live index's records is
  re-run from scratch and must reach the same fixpoint, gain and round
  count (:func:`audit_ascent_replay`),
- every exhaustive-search anchor replayed from the matrix's records is
  re-walked from scratch and must spend the same nodes, count the same
  prunes, forced columns and evaluations, and leave the same best
  rectangle and cut (:func:`audit_anchor_replay`),
- every matrix the greedy loop patches instead of rebuilding is checked
  against a fresh build for order-isomorphism (:func:`audit_kc_order`),
- every ``CubeStateStore`` operation validates the records it touched
  (claim/value/owner consistency — the no-double-cover invariant).

Violations raise :class:`InvariantViolation` with a message naming the
index that disagreed.  The fuzz driver (:mod:`repro.verify.fuzz`) runs
with audits on under ``repro fuzz --check``.

This module must stay import-light (``os`` plus :mod:`repro.algebra`):
it is imported by :mod:`repro.rectangles.kcmatrix` at module load.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Tuple

from repro.algebra.cube import cube_union


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


popcount = getattr(int, "bit_count", None) or _popcount

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.cubestate import CubeRecord, CubeRef, CubeStateStore
    from repro.rectangles.kcmatrix import KCMatrix

ENV_VAR = "REPRO_CHECK"

#: Tri-state cache: None = not yet read from the environment.
_enabled = None


class InvariantViolation(AssertionError):
    """An internal data-structure invariant was found broken."""


def enabled() -> bool:
    """Whether audits are on (``REPRO_CHECK=1`` or :func:`set_audits`)."""
    global _enabled
    if _enabled is None:
        _enabled = os.environ.get(ENV_VAR, "0") not in ("", "0")
    return _enabled


def set_audits(on) -> None:
    """Force audits on/off for this process (``None`` re-reads the env)."""
    global _enabled
    _enabled = None if on is None else bool(on)


def _fail(msg: str) -> None:
    raise InvariantViolation(msg)


# ----------------------------------------------------------------------
# KCMatrix: incremental (per-mutation) checks
# ----------------------------------------------------------------------

def audit_row_added(mat: "KCMatrix", label: int) -> None:
    """Post-condition of ``add_row``: indexes agree on the new row."""
    info = mat.rows.get(label)
    if info is None:
        _fail(f"add_row({label}): row missing from rows")
    if mat.by_row.get(label) != set():
        _fail(f"add_row({label}): by_row not initialized empty")
    if label not in mat.node_rows.get(info.node, ()):
        _fail(f"add_row({label}): node_rows[{info.node!r}] missing the row")


def audit_col_added(mat: "KCMatrix", label: int) -> None:
    """Post-condition of ``ensure_col``: cols/col_of_cube/by_col agree."""
    cube = mat.cols.get(label)
    if cube is None:
        _fail(f"ensure_col({label}): column missing from cols")
    if mat.col_of_cube.get(cube) != label:
        _fail(f"ensure_col({label}): col_of_cube inverse disagrees")
    if label not in mat.by_col:
        _fail(f"ensure_col({label}): by_col not initialized")


def audit_entry_added(mat: "KCMatrix", row: int, col: int) -> None:
    """Post-condition of ``add_entry``: cell, adjacency and cube agree."""
    cube = mat.entries.get((row, col))
    if cube is None:
        _fail(f"add_entry({row}, {col}): entry missing")
    if col not in mat.by_row.get(row, ()):
        _fail(f"add_entry({row}, {col}): by_row adjacency missing")
    if row not in mat.by_col.get(col, ()):
        _fail(f"add_entry({row}, {col}): by_col adjacency missing")
    expect = cube_union(mat.rows[row].cokernel, mat.cols[col])
    if cube != expect:
        _fail(
            f"add_entry({row}, {col}): entry cube {cube} != "
            f"cokernel ∪ kernel-cube {expect}"
        )


def audit_row_removed(mat: "KCMatrix", label: int) -> None:
    """Post-condition of ``remove_row``: no index still references it."""
    if label in mat.rows or label in mat.by_row:
        _fail(f"remove_row({label}): row survives in rows/by_row")
    for node, rows in mat.node_rows.items():
        if label in rows:
            _fail(f"remove_row({label}): node_rows[{node!r}] still lists it")
        if not rows:
            _fail(f"remove_row({label}): empty node_rows[{node!r}] kept")
    for rows in mat.by_col.values():
        if label in rows:
            _fail(f"remove_row({label}): by_col still lists the row")


def audit_col_removed(mat: "KCMatrix", label: int) -> None:
    """Post-condition of ``remove_col``: no index still references it."""
    if label in mat.cols or label in mat.by_col:
        _fail(f"remove_col({label}): column survives in cols/by_col")
    if label in mat.col_of_cube.values():
        _fail(f"remove_col({label}): col_of_cube still maps to it")
    for cols in mat.by_row.values():
        if label in cols:
            _fail(f"remove_col({label}): by_row still lists the column")


def audit_col_relabeled(mat: "KCMatrix", old: int, new: int) -> None:
    """Post-condition of ``relabel_col``: every index moved, O(degree)."""
    if old in mat.cols or old in mat.by_col:
        _fail(f"relabel_col({old}, {new}): old label survives in cols/by_col")
    cube = mat.cols.get(new)
    if cube is None or new not in mat.by_col:
        _fail(f"relabel_col({old}, {new}): column missing under the new label")
    if mat.col_of_cube.get(cube) != new:
        _fail(f"relabel_col({old}, {new}): col_of_cube inverse disagrees")
    for row in mat.by_col[new]:
        if (row, old) in mat.entries or old in mat.by_row[row]:
            _fail(f"relabel_col({old}, {new}): row {row} still references old")
        if new not in mat.by_row[row]:
            _fail(f"relabel_col({old}, {new}): by_row[{row}] misses new label")
        expect = cube_union(mat.rows[row].cokernel, cube)
        if mat.entries.get((row, new)) != expect:
            _fail(f"relabel_col({old}, {new}): entry ({row}, {new}) cube wrong")


def audit_row_relabeled(mat: "KCMatrix", old: int, new: int) -> None:
    """Post-condition of ``relabel_row``: every index moved, O(degree)."""
    if old in mat.rows or old in mat.by_row or old in mat.overlap_rows:
        _fail(f"relabel_row({old}, {new}): old label survives in rows/by_row/overlap_rows")
    info = mat.rows.get(new)
    if info is None or new not in mat.by_row:
        _fail(f"relabel_row({old}, {new}): row missing under the new label")
    rows = mat.node_rows.get(info.node, ())
    if old in rows or new not in rows:
        _fail(f"relabel_row({old}, {new}): node_rows[{info.node!r}] not moved")
    for col in mat.by_row[new]:
        if (old, col) in mat.entries or old in mat.by_col[col]:
            _fail(f"relabel_row({old}, {new}): column {col} still references old")
        if new not in mat.by_col[col]:
            _fail(f"relabel_row({old}, {new}): by_col[{col}] misses new label")
        expect = cube_union(info.cokernel, mat.cols[col])
        if mat.entries.get((new, col)) != expect:
            _fail(f"relabel_row({old}, {new}): entry ({new}, {col}) cube wrong")


# ----------------------------------------------------------------------
# KCMatrix: full-structure check
# ----------------------------------------------------------------------

def audit_kcmatrix(mat: "KCMatrix") -> None:
    """Full consistency of ``entries`` vs ``by_row``/``by_col`` vs
    ``node_rows`` vs ``col_of_cube`` (O(rows + cols + entries))."""
    if set(mat.by_row) != set(mat.rows):
        _fail("by_row keys != rows keys")
    if set(mat.by_col) != set(mat.cols):
        _fail("by_col keys != cols keys")
    # entries ⊆ rows × cols, adjacency closed both ways, cubes correct.
    n_adj = 0
    for (r, c), cube in mat.entries.items():
        if r not in mat.rows:
            _fail(f"entry ({r}, {c}) references unknown row")
        if c not in mat.cols:
            _fail(f"entry ({r}, {c}) references unknown column")
        if c not in mat.by_row[r] or r not in mat.by_col[c]:
            _fail(f"entry ({r}, {c}) missing from adjacency")
        expect = cube_union(mat.rows[r].cokernel, mat.cols[c])
        if cube != expect:
            _fail(f"entry ({r}, {c}) cube {cube} != {expect}")
    for r, cols in mat.by_row.items():
        n_adj += len(cols)
        for c in cols:
            if (r, c) not in mat.entries:
                _fail(f"by_row lists ({r}, {c}) with no entry")
    if n_adj != len(mat.entries):
        _fail("by_row adjacency count != entry count")
    if sum(len(rows) for rows in mat.by_col.values()) != len(mat.entries):
        _fail("by_col adjacency count != entry count")
    # col_of_cube is the exact inverse of cols.
    if len(mat.col_of_cube) != len(mat.cols):
        _fail("col_of_cube size != cols size")
    for cube, label in mat.col_of_cube.items():
        if mat.cols.get(label) != cube:
            _fail(f"col_of_cube[{cube}] = {label} but cols disagrees")
    # node_rows is the exact row partition by node.
    expect_nodes: dict = {}
    for label, info in mat.rows.items():
        expect_nodes.setdefault(info.node, set()).add(label)
    if mat.node_rows != expect_nodes:
        _fail("node_rows index disagrees with rows")
    # overlap_rows counts each row's cells whose column cube overlaps
    # the co-kernel (the only rows that can repeat a cube).
    expect_overlap: dict = {}
    for (r, c), cube in mat.entries.items():
        if len(cube) != len(mat.rows[r].cokernel) + len(mat.cols[c]):
            expect_overlap[r] = expect_overlap.get(r, 0) + 1
    if mat.overlap_rows != expect_overlap:
        _fail("overlap_rows counts disagree with entries")


def kc_order_form(mat: "KCMatrix") -> Tuple[list, list, list]:
    """The label-free, order-sensitive form of a KC matrix.

    ``(rows, cols, cells)``: the ``(node, cokernel)`` of every row in
    sorted-label order, the column cubes in sorted-label order, and the
    sorted ``(row position, column position, cube)`` cells.  Two matrices
    with equal forms hand every search the same dense positions, so every
    tie-break resolves the same way; only the labels may differ.
    """
    row_labels = sorted(mat.rows)
    col_labels = sorted(mat.cols)
    row_pos = {lab: i for i, lab in enumerate(row_labels)}
    col_pos = {lab: j for j, lab in enumerate(col_labels)}
    rows = [(mat.rows[lab].node, mat.rows[lab].cokernel) for lab in row_labels]
    cols = [mat.cols[lab] for lab in col_labels]
    cells = sorted(
        (row_pos[r], col_pos[c], cube) for (r, c), cube in mat.entries.items()
    )
    return rows, cols, cells


def audit_kc_order(mat: "KCMatrix", fresh: "KCMatrix") -> None:
    """A patched matrix must be order-isomorphic to a fresh build
    (O(entries)); see :func:`kc_order_form`."""
    audit_kcmatrix(mat)
    got_rows, got_cols, got_cells = kc_order_form(mat)
    want_rows, want_cols, want_cells = kc_order_form(fresh)
    if got_rows != want_rows:
        _fail("patched KC matrix rows differ from a fresh build's")
    if got_cols != want_cols:
        _fail("patched KC matrix column order differs from a fresh build's")
    if got_cells != want_cells:
        _fail("patched KC matrix entries differ from a fresh build's")


def _audit_slots(kind: str, labels: list, pos: dict, want: dict, ordered: bool) -> None:
    """``labels[slot]`` and ``pos[label]`` are inverse over *want*'s keys."""
    live = [lab for lab in labels if lab is not None]
    if len(live) != len(want) or set(live) != set(want):
        _fail(f"bitview {kind} labels != matrix {kind}s")
    if ordered and labels != sorted(want):
        _fail(f"bitview {kind} labels not in sorted-label order")
    if len(pos) != len(want):
        _fail(f"bitview {kind}_pos has {len(pos)} labels, matrix {len(want)}")
    for lab, slot in pos.items():
        if slot >= len(labels) or labels[slot] != lab:
            _fail(f"bitview {kind}_pos[{lab}] = {slot} disagrees with the slot's label")


def _audit_potentials(view, values: list) -> None:
    """A materialized ``row_pot``, with its unsettled columns settled on
    a copy, must equal a full recompute; every other column's recorded
    size must be its real size."""
    sizes = [popcount(mask) for mask in view.col_rows]
    for j, size in enumerate(sizes):
        if j not in view._pot_dirty and view._pot_sizes[j] != size:
            _fail(f"bitview row_pot: column slot {j} changed size but is not marked")
    got = list(view.row_pot)
    for i, rcells in enumerate(view.cells):
        for j, eid in rcells.items():
            got[i] += (sizes[j] - view._pot_sizes[j]) * values[eid]
    expect = [
        sum((sizes[j] - 1) * values[eid] for j, eid in rcells.items())
        for rcells in view.cells
    ]
    if got != expect:
        _fail("bitview row_pot disagrees with a full recompute")


def audit_bitview(mat: "KCMatrix", view) -> None:
    """Sparse/bitview parity: the bitset form mirrors the matrix.

    Holds for both forms: the sorted compilation (positions must also be
    in sorted-label order) and the live slot index (free slots must be
    empty, the default value table must match every live cell, and a
    materialized ``row_pot`` must equal a full recompute of the seed
    potentials).
    """
    _audit_slots("row", view.row_labels, view.row_pos, mat.rows, view.ORDERED)
    _audit_slots("col", view.col_labels, view.col_pos, mat.cols, view.ORDERED)
    if view.num_entries != mat.num_entries:
        _fail(
            f"bitview has {view.num_entries} cells, "
            f"matrix has {mat.num_entries} entries"
        )
    n_cells = sum(len(rcells) for rcells in view.cells)
    if n_cells != mat.num_entries:
        _fail(f"bitview has {n_cells} cells, matrix has {mat.num_entries} entries")
    eids = set()
    for (r, c), cube in mat.entries.items():
        i = view.row_pos.get(r)
        j = view.col_pos.get(c)
        if i is None or j is None:
            _fail(f"bitview lost entry ({r}, {c})")
        eid = view.cells[i].get(j)
        if eid is None:
            _fail(f"bitview has no cell for entry ({r}, {c})")
        eids.add(eid)
        if view.entry_cubes[eid] != cube:
            _fail(f"bitview cell ({r}, {c}) cube disagrees with sparse entry")
        if not (view.row_cols[i] >> j) & 1:
            _fail(f"bitview row mask misses ({r}, {c})")
        if not (view.col_rows[j] >> i) & 1:
            _fail(f"bitview col mask misses ({r}, {c})")
    if len(eids) != mat.num_entries:
        _fail("bitview cells share an entry id")
    for i, mask in enumerate(view.row_cols):
        if popcount(mask) != len(view.cells[i]):
            _fail(f"bitview row mask popcount disagrees at row slot {i}")
    if sum(popcount(mask) for mask in view.col_rows) != mat.num_entries:
        _fail("bitview col mask popcounts disagree with the entry count")
    for i, lab in enumerate(view.row_labels):
        if lab is None:
            continue
        info = mat.rows[lab]
        if view.row_cost[i] != len(info.cokernel) + 1:
            _fail(f"bitview row_cost[{lab}] disagrees with cokernel size")
        if view.node_names[view.row_node[i]] != info.node:
            _fail(f"bitview row {lab} carries the wrong node")
    for j, lab in enumerate(view.col_labels):
        if lab is not None and view.col_cost[j] != len(mat.cols[lab]):
            _fail(f"bitview col_cost[{lab}] disagrees with kernel-cube size")
    if not view.ORDERED:
        values = view.value_table(view.value_source)
        _audit_value_table(view, values)
        if view.row_pot is not None:
            _audit_potentials(view, values)


def _audit_value_table(view, values: list) -> None:
    """The live index's maintained table must equal a full recompute
    under its value source; a bound source's ref map must list exactly
    the live cells."""
    source = view.value_source
    bound = view._ref_cells is not None
    names = view.node_names
    refs: dict = {}
    for i, rcells in enumerate(view.cells):
        if not rcells:
            continue
        name = names[view.row_node[i]]
        for j, eid in rcells.items():
            cube = view.entry_cubes[eid]
            want = source(name, cube)
            if values[eid] != want:
                _fail(
                    f"bitview value of cell ({view.row_labels[i]}, "
                    f"{view.col_labels[j]}) is {values[eid]}, a recompute "
                    f"gives {want}"
                )
            if bound:
                refs.setdefault((name, cube), set()).add((i, j))
    if bound:
        got = {ref: set(slots) for ref, slots in view._ref_cells.items()}
        if got != refs or sum(map(len, view._ref_cells.values())) != view.num_entries:
            _fail("bitview cube-ref map disagrees with the live cells")


def audit_ascent_replay(seed: int, recorded, fresh) -> None:
    """A replayed ping-pong ascent must match a re-run from scratch.

    *recorded* and *fresh* are :class:`~repro.rectangles.pingpong.Ascent`
    records, the second from the re-run; their fixpoint, gain and round
    count must agree.  *seed* is the seed row's label.
    """
    got = tuple(recorded[:4])
    want = tuple(fresh[:4])
    if got != want:
        _fail(
            f"ping-pong seed {seed}: replayed ascent (rows, cols, gain, rounds) "
            f"{got} disagrees with a re-run {want}"
        )


def audit_anchor_replay(anchor: int, recorded: tuple, fresh: tuple) -> None:
    """A replayed exhaustive-search anchor must match a re-walk.

    Both are ``(entry, nodes, pruned, forced, evaluated, won)`` anchor
    records (see :func:`repro.rectangles.search._best_rectangle_bit_v2`),
    the second from a walk of the anchor alone from the same entry
    incumbent; every field must agree, and with *entry* and *won* so
    does the cut they leave.  *anchor* is the anchor column's label.
    """
    if tuple(recorded) != tuple(fresh):
        _fail(
            f"exhaustive anchor {anchor}: replayed (entry, nodes, pruned, "
            f"forced, evaluated, won) {tuple(recorded)} disagrees with a "
            f"re-walk {tuple(fresh)}"
        )


# ----------------------------------------------------------------------
# CubeStateStore checks
# ----------------------------------------------------------------------

def audit_cube_record(ref: "CubeRef", rec: "CubeRecord") -> None:
    """Field consistency of one speculative cube record (Table 5).

    FREE records carry no owner; COVERED records carry a claiming
    processor and the saved true value; DIVIDED records are worth zero
    forever.  ``cover`` must never reassign a COVERED cube to a second
    owner (only ``release_owner`` frees a claim) — with this check at
    every mutation, a double-cover shows up as an owner/status
    inconsistency at the exact operation that caused it.
    """
    from repro.parallel.cubestate import CubeStatus

    if rec.status is CubeStatus.FREE:
        if rec.owner != -1:
            _fail(f"FREE cube {ref} still owned by processor {rec.owner}")
    elif rec.status is CubeStatus.COVERED:
        if rec.owner < 0:
            _fail(f"COVERED cube {ref} has no owner")
        if rec.trueval != len(ref[1]):
            _fail(
                f"COVERED cube {ref} saved value {rec.trueval} != "
                f"cube size {len(ref[1])}"
            )
    else:  # DIVIDED
        if rec.trueval != 0:
            _fail(f"DIVIDED cube {ref} keeps nonzero value {rec.trueval}")


def audit_cover_transition(
    ref: "CubeRef", before: Tuple[object, int], rec: "CubeRecord", pid: int
) -> None:
    """No-double-cover: ``cover`` may claim FREE cubes or refresh its own
    claim, but must leave foreign claims and DIVIDED cubes untouched."""
    from repro.parallel.cubestate import CubeStatus

    status0, owner0 = before
    if status0 is CubeStatus.DIVIDED and rec.status is not CubeStatus.DIVIDED:
        _fail(f"cover({ref}) by {pid} resurrected a DIVIDED cube")
    if (
        status0 is CubeStatus.COVERED
        and owner0 not in (pid, -1)
        and rec.owner != owner0
    ):
        _fail(
            f"double cover of {ref}: processor {pid} stole the claim "
            f"of processor {owner0}"
        )
    audit_cube_record(ref, rec)


def audit_cubestate(store: "CubeStateStore") -> None:
    """Full-store sweep of :func:`audit_cube_record`."""
    for ref, rec in store._recs.items():
        audit_cube_record(ref, rec)
