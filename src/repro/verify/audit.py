"""Opt-in invariant audits (sanitizer-style, ``REPRO_CHECK=1``).

The rectangle searches and the speculative cube-state protocol keep
packed, incrementally patched structures for speed:
:class:`~repro.rectangles.kcmatrix.KCMatrix` keeps its labels
(``rows``/``cols``/``col_of_cube``/``col_pos``/``overlap_rows``) and its
bitset cell store (slot labels, row and column masks, a cell table of
entry ids, a value table) in one object that both rectangle searches
walk, and :class:`~repro.parallel.cubestate.CubeStateStore` tracks
per-cube claims that must never double-cover.  A bug in any of that
bookkeeping silently corrupts factorization results long before an
equivalence check can localize it.

This module provides the checks and the switch.  Audits are **off by
default** — the hot paths pay one predicate call per mutation — and are
enabled process-wide by ``REPRO_CHECK=1`` in the environment (read once,
lazily) or :func:`set_audits` from code.  When enabled:

- every :class:`KCMatrix` mutator validates the delta it just applied
  (O(delta), plus a sweep of the freed slots after a removal),
- ``submatrix_columns`` validates the full structure
  (:func:`audit_kcmatrix`: every label sits at its slot, the row and
  column masks are transposes, the cell table matches both masks,
  every cell's cube is its co-kernel ∪ column cube, free slots are
  empty, and ``overlap_rows`` matches a recount),
- every ping-pong search, every ``apply_rectangle``, every cube-state
  binding and every derivation of the exhaustive search's label-order
  tables (``KCMatrix.search_tables()``) first runs :func:`audit_store`:
  that full check plus the maintained value table and seed potentials
  against a recompute; a matrix bound to a value source (the L-shaped
  cube-state view) has its patched value table checked against an
  uncharged recompute of every cell, so every L-shaped search checks
  the table it reads,
- every ping-pong seed ascent replayed from the matrix's records is
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

This module must stay import-light (``os``, :mod:`repro.algebra` and
the bitset helpers): it is imported by
:mod:`repro.rectangles.kcmatrix` at module load.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Tuple

from repro.algebra.cube import cube_union
from repro.rectangles.bitview import iter_bits, popcount

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

def _at_slot(labels: list, slot, label: int) -> bool:
    return slot is not None and 0 <= slot < len(labels) and labels[slot] == label


def _audit_row_slot(mat: "KCMatrix", label: int) -> int:
    """Row *label* sits at its slot; returns the slot."""
    info = mat.rows.get(label)
    if info is None or not _at_slot(mat.row_labels, info.slot, label):
        _fail(f"row labels: row {label} is not at its slot")
    return info.slot


def _audit_col_slot(mat: "KCMatrix", label: int) -> int:
    """Column *label* sits at its slot and is inverse-mapped from its
    cube; returns the slot."""
    slot = mat.col_pos.get(label)
    cube = mat.cols.get(label)
    if cube is None or not _at_slot(mat.col_labels, slot, label):
        _fail(f"column labels: column {label} is not at its slot")
    if mat.col_of_cube.get(cube) != label:
        _fail(f"column {label}: col_of_cube inverse disagrees")
    return slot


def _audit_cube(mat: "KCMatrix", row: int, col: int) -> None:
    """The cell (*row*, *col*) holds the row's co-kernel ∪ the column's
    cube, and both masks carry it."""
    rslot = mat.rows[row].slot
    cslot = mat.col_pos[col]
    eid = mat.row_cells[rslot].get(cslot)
    if eid is None:
        _fail(f"entry ({row}, {col}) missing")
    if not (mat.row_cols[rslot] >> cslot) & 1 or not (mat.col_rows[cslot] >> rslot) & 1:
        _fail(f"entry ({row}, {col}) missing from a mask")
    expect = cube_union(mat.rows[row].cokernel, mat.cols[col])
    if mat.entry_cubes[eid] != expect:
        _fail(f"entry ({row}, {col}) cube {mat.entry_cubes[eid]} != {expect}")


def _audit_free_slots(mat: "KCMatrix") -> None:
    """Free slots hold nothing: no cell and no bit in any mask, and free
    entry ids no cube."""
    free_rows = free_cols = 0
    for i, lab in enumerate(mat.row_labels):
        if lab is None:
            free_rows |= 1 << i
            if mat.row_cells[i] or mat.row_cols[i]:
                _fail(f"free row slot {i} still holds cells")
    for j, lab in enumerate(mat.col_labels):
        if lab is None:
            free_cols |= 1 << j
    if any(mask & free_rows for mask in mat.col_rows):
        _fail("a column mask still lists a freed row slot")
    if any(mask & free_cols for mask in mat.row_cols):
        _fail("a row mask still lists a freed column slot")
    if any(mat.entry_cubes[eid] is not None for eid in mat._free_eids):
        _fail("a free entry id still holds a cube")


def audit_row_added(mat: "KCMatrix", label: int) -> None:
    """Post-condition of ``add_row``: an empty row at its slot."""
    slot = _audit_row_slot(mat, label)
    if mat.row_cells[slot] or mat.row_cols[slot]:
        _fail(f"add_row({label}): the row's slot is not empty")


def audit_col_added(mat: "KCMatrix", label: int) -> None:
    """Post-condition of ``ensure_col``: an empty column, inverse-mapped."""
    if mat.col_rows[_audit_col_slot(mat, label)]:
        _fail(f"ensure_col({label}): the column's slot is not empty")


def audit_entry_added(mat: "KCMatrix", row: int, col: int) -> None:
    """Post-condition of ``add_entry``: cell, both masks and cube agree."""
    _audit_cube(mat, row, col)


def audit_row_removed(mat: "KCMatrix", label: int) -> None:
    """Post-condition of ``remove_row``: nothing still references it."""
    if label in mat.rows or label in mat.row_labels or label in mat.overlap_rows:
        _fail(f"remove_row({label}): the row survives")
    _audit_free_slots(mat)


def audit_col_removed(mat: "KCMatrix", label: int) -> None:
    """Post-condition of ``remove_col``: nothing still references it."""
    if label in mat.cols or label in mat.col_pos or label in mat.col_labels:
        _fail(f"remove_col({label}): the column survives")
    if label in mat.col_of_cube.values():
        _fail(f"remove_col({label}): col_of_cube still maps to it")
    _audit_free_slots(mat)


def audit_col_relabeled(mat: "KCMatrix", old: int, new: int) -> None:
    """Post-condition of ``relabel_col``: the label moved, the cells
    stayed (O(degree))."""
    if old in mat.cols or old in mat.col_pos:
        _fail(f"relabel_col({old}, {new}): the old label survives")
    slot = _audit_col_slot(mat, new)
    for rslot in iter_bits(mat.col_rows[slot]):
        _audit_cube(mat, mat.row_labels[rslot], new)


def audit_row_relabeled(mat: "KCMatrix", old: int, new: int) -> None:
    """Post-condition of ``relabel_row``: the label moved, the cells
    stayed (O(degree))."""
    if old in mat.rows:
        _fail(f"relabel_row({old}, {new}): the old label survives")
    if old in mat.overlap_rows:
        _fail(f"relabel_row({old}, {new}): overlap_rows keeps the old label")
    slot = _audit_row_slot(mat, new)
    for cslot in mat.row_cells[slot]:
        _audit_cube(mat, new, mat.col_labels[cslot])


# ----------------------------------------------------------------------
# KCMatrix: full-structure check
# ----------------------------------------------------------------------

def _audit_cells(mat: "KCMatrix") -> None:
    """The cell table and masks agree: the row and column masks are
    transposes, each row's cells are exactly its mask's bits, and no
    two cells share an entry id."""
    col_rows = [0] * len(mat.col_rows)
    for i, mask in enumerate(mat.row_cols):
        for j in iter_bits(mask):
            col_rows[j] |= 1 << i
        if set(mat.row_cells[i]) != set(iter_bits(mask)):
            _fail(f"store: the cell table disagrees with row slot {i}'s mask")
    if col_rows != mat.col_rows:
        _fail("store: row and column adjacency masks are not transposes")
    eids = {eid for rcells in mat.row_cells for eid in rcells.values()}
    if len(eids) != sum(map(len, mat.row_cells)) or len(eids) != mat.num_entries:
        _fail("store: cells share an entry id or miscount num_entries")


def audit_kcmatrix(mat: "KCMatrix") -> None:
    """Full consistency of the matrix (O(rows + cols + entries)): every
    label sits at its slot and every live slot holds a label, free slots
    are empty, the cell table matches both masks, each cell's cube is
    its co-kernel ∪ column cube, ``overlap_rows`` matches a recount and
    ``col_of_cube`` inverts ``cols``."""
    for label in mat.rows:
        _audit_row_slot(mat, label)
    if sum(lab is not None for lab in mat.row_labels) != len(mat.rows):
        _fail("row labels: a live slot holds no row")
    if mat.col_pos.keys() != mat.cols.keys() or len(mat.col_of_cube) != len(mat.cols):
        _fail("column labels: cols, col_pos and col_of_cube disagree")
    for label in mat.cols:
        _audit_col_slot(mat, label)
    if sum(lab is not None for lab in mat.col_labels) != len(mat.cols):
        _fail("column labels: a live slot holds no column")
    _audit_free_slots(mat)
    _audit_cells(mat)
    for lab, info in mat.rows.items():
        i = info.slot
        if (mat.row_cost[i] != len(info.cokernel) + 1
                or mat.node_names[mat.row_node[i]] != info.node):
            _fail(f"store row {lab} carries the wrong cost or node")
    for lab, j in mat.col_pos.items():
        if mat.col_cost[j] != len(mat.cols[lab]):
            _fail(f"store col_cost[{lab}] disagrees with kernel-cube size")
    # Every cell's cube is its row's co-kernel ∪ its column's cube, and
    # overlap_rows counts each row's cells where the two overlap (the
    # only rows that can repeat a cube).
    expect_overlap: dict = {}
    for (r, c), cube in mat.cells().items():
        cokernel = mat.rows[r].cokernel
        expect = cube_union(cokernel, mat.cols[c])
        if cube != expect:
            _fail(f"entry ({r}, {c}) cube {cube} != {expect}")
        if len(cube) != len(cokernel) + len(mat.cols[c]):
            expect_overlap[r] = expect_overlap.get(r, 0) + 1
    if mat.overlap_rows != expect_overlap:
        _fail("overlap_rows counts disagree with a recount of the cells")


def kc_order_form(mat: "KCMatrix") -> Tuple[list, list, list]:
    """The label-free, order-sensitive form of a KC matrix.

    ``(rows, cols, cells)``: the ``(node, cokernel)`` of every row in
    sorted-label order, the column cubes in sorted-label order, and the
    sorted ``(row rank, column rank, cube)`` cells, ranks in sorted-label
    order.  Two matrices with equal forms order every search's rows and
    columns the same way, so every tie-break resolves the same way; only
    the labels may differ.
    """
    row_labels = sorted(mat.rows)
    col_labels = sorted(mat.cols)
    row_pos = {lab: i for i, lab in enumerate(row_labels)}
    col_pos = {lab: j for j, lab in enumerate(col_labels)}
    rows = [(mat.rows[lab].node, mat.rows[lab].cokernel) for lab in row_labels]
    cols = [mat.cols[lab] for lab in col_labels]
    cells = sorted(
        (row_pos[r], col_pos[c], cube) for (r, c), cube in mat.cells().items()
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


def _audit_potentials(mat: "KCMatrix", values: list) -> None:
    """A materialized ``row_pot``, with its unsettled columns settled on
    a copy, must equal a full recompute; every other column's recorded
    size must be its real size."""
    sizes = [popcount(mask) for mask in mat.col_rows]
    for j, size in enumerate(sizes):
        if j not in mat._pot_dirty and mat._pot_sizes[j] != size:
            _fail(f"row_pot: column slot {j} changed size but is not marked")
    got = list(mat.row_pot)
    for i, rcells in enumerate(mat.row_cells):
        for j, eid in rcells.items():
            got[i] += (sizes[j] - mat._pot_sizes[j]) * values[eid]
    expect = [
        sum((sizes[j] - 1) * values[eid] for j, eid in rcells.items())
        for rcells in mat.row_cells
    ]
    if got != expect:
        _fail("row_pot disagrees with a full recompute")


def audit_store(mat: "KCMatrix") -> None:
    """The whole store is consistent: :func:`audit_kcmatrix`, plus its
    maintained value table and, once materialized, its seed potentials
    against a full recompute."""
    audit_kcmatrix(mat)
    values = mat.value_table(mat.value_source)
    _audit_value_table(mat, values)
    if mat.row_pot is not None:
        _audit_potentials(mat, values)


def _audit_value_table(mat: "KCMatrix", values: list) -> None:
    """The maintained table must equal a full recompute under its value
    source; a bound source's ref map must list exactly the live cells."""
    source = mat.value_source
    bound = mat._ref_cells is not None
    names = mat.node_names
    refs: dict = {}
    for i, rcells in enumerate(mat.row_cells):
        if not rcells:
            continue
        name = names[mat.row_node[i]]
        for j, eid in rcells.items():
            cube = mat.entry_cubes[eid]
            want = source(name, cube)
            if values[eid] != want:
                _fail(
                    f"value of cell ({mat.row_labels[i]}, {mat.col_labels[j]}) "
                    f"is {values[eid]}, a recompute gives {want}"
                )
            if bound:
                refs.setdefault((name, cube), set()).add((i, j))
    if bound:
        got = {ref: set(slots) for ref, slots in mat._ref_cells.items()}
        if got != refs or sum(map(len, mat._ref_cells.values())) != mat.num_entries:
            _fail("cube-ref map disagrees with the live cells")


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
