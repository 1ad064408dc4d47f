"""The bitset store of a :class:`~repro.rectangles.kcmatrix.KCMatrix`.

The rectangle searches spend nearly all of their time intersecting row
sets, scanning candidate columns and re-valuing (row, col) cells.  The
matrix keys all of that by *global offset labels* (processor 2's first
kernel is row 200001); here it is held in bitset form instead:

- each column's row set and each row's column set are Python int
  bitmasks — a row-set intersection is one big-int ``&``, a dominance
  test one equality, a cardinality one popcount;
- every occupied cell carries an *entry id* into a per-search value
  table, and per-row ``len(cokernel) + 1`` / per-column
  ``len(kernel_cube)`` cost tables turn row marginals and rectangle
  gains into table lookups instead of ``value_fn`` calls;
- rows carry node ids, so the distinct-cube gain correction (two cells
  of one node naming the same original cube count once) only ever
  hashes cubes for nodes that actually contribute several rows to a
  rectangle — the common all-distinct case is pure table arithmetic.

:class:`LiveBitIndex` (``KCMatrix.bitview()``) is the matrix's only
store of cells.  It is made with the matrix, and every mutator of the
matrix writes its change here once, in O(degree) (a relabel in O(1)).
Rows and columns live at stable *slots* that never move while they
live; a removal frees its slot and the next insertion reuses the
lowest free one.  Slot order is therefore not label order, and the
ping-pong search that runs on it takes every tie-break from the labels.

:class:`BitKCView` (``KCMatrix.dense_view()``) is a sorted compilation
of the live index: dense positions ``0..R-1`` / ``0..C-1`` in
sorted-label order, so position order *is* label order.  The
exhaustive search walks label-ordered column subsets by position
(``neg_above``), so it keeps this form, compiled from the live slots
once per matrix version and dropped by every mutation.

The value table for the pure :func:`~repro.rectangles.rectangle.
default_value` is kept with the structure, and so are the live index's
ping-pong seed potentials under it (``row_pot``) and its records of the
last search's seed ascents, with the row and column slots the mutators
have dirtied since.  The live index can instead keep its table under a
value function with an event source (:meth:`LiveBitIndex.bind_values`):
the L-shaped cube-state values, which change only when the store
covers, divides or releases a cube and which the store pushes into the
table as it does.  Any other ``value_fn`` (power's activity values, the
threaded L-shaped variant) is evaluated freshly per search — still once
per cell instead of once per (row, col, visit).

The labels stay the external interface: every rectangle leaving a
search carries the original offset labels, so the parallel algorithms'
exchange/splice protocol is untouched.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import mul
from typing import AbstractSet, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.algebra.cube import Cube
from repro.rectangles.rectangle import ValueFn, default_value

CubeRef = Tuple[str, Cube]

if hasattr(int, "bit_count"):  # Python ≥ 3.10
    popcount = int.bit_count
else:  # pragma: no cover - exercised on 3.9 CI only
    def popcount(mask: int) -> int:
        return bin(mask).count("1")


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set-bit positions of *mask* in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def seed_potentials(
    cells: List[Dict[int, int]], col_sizes: List[int], values: List[int]
) -> List[int]:
    """Each row's ping-pong seed potential, ``Σ_c (col_sizes[c] − 1) ·
    values[cell]``: the value a row shares with other rows."""
    shar1 = [n - 1 for n in col_sizes]
    getshar = shar1.__getitem__
    getval = values.__getitem__
    return [
        sum(map(mul, map(getshar, rcells.keys()), map(getval, rcells.values())))
        for rcells in cells
    ]


def _dup_slots(cells: List[Dict[int, int]], cubes: List, slots: Iterable[int]) -> Set[int]:
    """The *slots* whose cells repeat an original cube within the row."""
    out: Set[int] = set()
    for slot in slots:
        rcells = cells[slot]
        if len(rcells) > 1 and len({cubes[eid] for eid in rcells.values()}) < len(rcells):
            out.add(slot)
    return out


class _BitCells:
    """The cell layout both bitset forms share, and the queries over it.

    Subclasses provide ``row_pos``/``col_pos`` (label → row/column
    index), ``cells`` (per row: column index → entry id),
    ``entry_cubes``, ``row_node``/``node_names``, the cost tables and
    :meth:`dup_rows`.
    """

    __slots__ = ()

    def _values_for(self, value_fn: ValueFn) -> List[int]:
        """A fresh per-entry-id table under a non-default *value_fn*."""
        cubes = self.entry_cubes
        names = self.node_names
        row_node = self.row_node
        out: List[int] = [0] * len(cubes)
        for rpos, rcells in enumerate(self.cells):
            if rcells:
                name = names[row_node[rpos]]
                for eid in rcells.values():
                    out[eid] = value_fn(name, cubes[eid])
        return out

    def rect_gain(
        self,
        row_positions: Sequence[int],
        col_positions: Sequence[int],
        values: List[int],
    ) -> int:
        """Exact distinct-cube-counted gain of a position rectangle.

        Order-free: cells of one node naming the same cube carry equal
        values, so which of them counts first does not matter.
        """
        cells = self.cells
        row_node = self.row_node
        gain = 0
        for cpos in col_positions:
            gain -= self.col_cost[cpos]
        counts: Dict[int, int] = {}
        for rpos in row_positions:
            gain -= self.row_cost[rpos]
            nid = row_node[rpos]
            counts[nid] = counts.get(nid, 0) + 1
        dup = self.dup_rows()
        need: Set[int] = {nid for nid, k in counts.items() if k > 1}
        if dup:
            for rpos in row_positions:
                if rpos in dup:
                    need.add(row_node[rpos])
        if not need:
            # Every cell is a distinct (node, cube) ref: no correction.
            for rpos in row_positions:
                rcells = cells[rpos]
                for cpos in col_positions:
                    gain += values[rcells[cpos]]
            return gain
        cubes = self.entry_cubes
        seen: Dict[int, Set[Cube]] = {nid: set() for nid in need}
        for rpos in row_positions:
            rcells = cells[rpos]
            node_seen = seen.get(row_node[rpos])
            if node_seen is None:
                for cpos in col_positions:
                    gain += values[rcells[cpos]]
            else:
                for cpos in col_positions:
                    eid = rcells[cpos]
                    cube = cubes[eid]
                    if cube not in node_seen:
                        node_seen.add(cube)
                        gain += values[eid]
        return gain

    def covered_cubes_by_node(self, rect) -> Dict[str, Set[Cube]]:
        """Distinct original cubes a (label) rectangle covers, per node."""
        out: Dict[str, Set[Cube]] = {}
        cells = self.cells
        cubes = self.entry_cubes
        names = self.node_names
        row_pos = self.row_pos
        col_positions = [self.col_pos[c] for c in rect.cols]
        for rlab in rect.rows:
            rpos = row_pos[rlab]
            rcells = cells[rpos]
            node = names[self.row_node[rpos]]
            per_node = out.setdefault(node, set())
            for cpos in col_positions:
                per_node.add(cubes[rcells[cpos]])
        return out


class BitKCView(_BitCells):
    """Sorted dense-position compilation of one KCMatrix snapshot.

    Build with :meth:`KCMatrix.dense_view` (cached) rather than
    directly; the cache guarantees at most one compilation per matrix
    version.  The compile walks the live index's slots in label order;
    cells keep the index's entry ids, so ``entry_cubes`` is the index's
    own list, valid until the next mutation drops the view.
    """

    __slots__ = (
        "row_labels",
        "col_labels",
        "row_pos",
        "col_pos",
        "row_cols",
        "col_rows",
        "cells",
        "entry_cubes",
        "row_node",
        "node_names",
        "row_cost",
        "col_cost",
        "num_entries",
        "_overlap_rows",
        "_default_values",
        "_neg_above",
        "_dup_rows",
        "_clean_rows",
        "_dominated_anchors",
        "_suffix_pot",
    )

    def __init__(self, matrix) -> None:
        live = matrix._live
        row_labels = sorted(live.row_pos)
        col_labels = sorted(live.col_pos)
        self.row_labels: List[int] = row_labels
        self.col_labels: List[int] = col_labels
        row_pos = {lab: i for i, lab in enumerate(row_labels)}
        col_pos = {lab: i for i, lab in enumerate(col_labels)}
        self.row_pos: Dict[int, int] = row_pos
        self.col_pos: Dict[int, int] = col_pos
        row_slots = [live.row_pos[lab] for lab in row_labels]
        col_slots = [live.col_pos[lab] for lab in col_labels]
        self.col_cost: List[int] = [live.col_cost[s] for s in col_slots]
        self.row_cost: List[int] = [live.row_cost[s] for s in row_slots]
        # Node ids are the index's: the gain correction only compares
        # cells within one node.
        self.row_node: List[int] = [live.row_node[s] for s in row_slots]
        self.node_names: List[str] = live.node_names

        # Column slot → position (free slots are never read).
        cpos_of = [0] * len(live.col_labels)
        for cpos, cslot in enumerate(col_slots):
            cpos_of[cslot] = cpos
        col_rows = [0] * len(col_labels)
        row_cols: List[int] = []
        cells: List[Dict[int, int]] = []
        for rpos, rslot in enumerate(row_slots):
            bit = 1 << rpos
            rcells = {}
            mask = 0
            for cslot, eid in live.cells[rslot].items():
                cpos = cpos_of[cslot]
                rcells[cpos] = eid
                mask |= 1 << cpos
                col_rows[cpos] |= bit
            cells.append(rcells)
            row_cols.append(mask)
        self.row_cols: List[int] = row_cols
        self.col_rows: List[int] = col_rows
        self.cells: List[Dict[int, int]] = cells
        self.entry_cubes: List[Optional[Cube]] = live.entry_cubes
        self.num_entries: int = live.num_entries
        self._overlap_rows: List[int] = [row_pos[lab] for lab in matrix.overlap_rows]
        self._default_values: Optional[List[int]] = (
            live._values[:] if live.value_source is default_value else None
        )
        self._neg_above: Optional[List[int]] = None
        self._dup_rows: Optional[Set[int]] = None
        self._clean_rows: Optional[int] = None
        self._dominated_anchors: Optional[int] = None
        self._suffix_pot: Optional[Tuple[List[List[int]], List[List[int]]]] = None

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return len(self.row_labels)

    @property
    def num_cols(self) -> int:
        return len(self.col_labels)

    def dup_rows(self) -> Set[int]:
        """Row positions whose cells repeat an original cube.

        KC matrices built from kernels never have these: a row's cubes
        are ``cokernel ∪ kc_j`` with the kernel cubes disjoint from the
        co-kernel, so distinct columns give distinct cubes.  Hand-built
        matrices can violate that (a column cube may overlap the
        co-kernel), and the distinct-cube gain correction must then also
        dedupe within single rows.  Only rows with an overlapping cell
        (``len(cube) != |cokernel| + |kc|``) can repeat a cube; the
        matrix counts them as entries are added
        (:attr:`KCMatrix.overlap_rows`), so only those rows are scanned.
        """
        got = self._dup_rows
        if got is None:
            got = _dup_slots(self.cells, self.entry_cubes, self._overlap_rows)
            self._dup_rows = got
        return got

    def neg_above(self) -> List[int]:
        """``neg_above[p] == -(1 << (p + 1))``: mask of columns above *p*.

        ANDing with ``neg_above[p]`` keeps exactly the bits strictly
        greater than ``p`` — the ordered-tree "only extend rightwards"
        filter.  Cached so the per-node mask is a table load instead of a
        fresh big-int shift at every search-tree node.
        """
        table = self._neg_above
        if table is None:
            table = [-(1 << (p + 1)) for p in range(len(self.col_labels))]
            self._neg_above = table
        return table

    def clean_rows_mask(self) -> int:
        """Bitmask of rows belonging to *clean* nodes.

        A node is clean when no two of its cells (across all of its
        rows, including within one row) name the same original cube —
        the distinct-cube gain correction can never fire for it, so
        adding a column to a rectangle made of clean rows contributes
        its full cell values.  The v2 dominance prune is only sound for
        columns whose rows are all clean (see
        :func:`repro.rectangles.search.best_rectangle_exhaustive`).
        """
        got = self._clean_rows
        if got is None:
            cubes = self.entry_cubes
            node_rows: Dict[int, List[int]] = {}
            for rpos, nid in enumerate(self.row_node):
                node_rows.setdefault(nid, []).append(rpos)
            got = 0
            for nid, rows in node_rows.items():
                seen: Set = set()
                clean = True
                for rpos in rows:
                    for eid in self.cells[rpos].values():
                        cube = cubes[eid]
                        if cube in seen:
                            clean = False
                            break
                        seen.add(cube)
                    if not clean:
                        break
                if clean:
                    for rpos in rows:
                        got |= 1 << rpos
            self._clean_rows = got
        return got

    def dominated_anchors(self) -> int:
        """Bitmask of columns the v2 search never anchors a subtree at.

        Column *c* is dominated when an earlier column *c2* covers a
        superset of its rows (``col_rows[c] ⊆ col_rows[c2]``,
        ``c2 < c``) and every row of *c* belongs to a clean node.  Under
        the default value function any rectangle anchored at *c* is then
        matched or beaten (gain, then lexicographic tie-break) by one in
        *c2*'s earlier subtree — adding *c2* costs ``|kernel_cube(c2)|``
        but contributes ``|cokernel_r| + |kernel_cube(c2)| + 1`` per row,
        and cleanliness guarantees the distinct-cube correction cannot
        claw that back — so skipping *c* as an anchor is exact.  *c*
        still participates as a forced or branched column inside other
        anchors' subtrees.
        """
        got = self._dominated_anchors
        if got is None:
            clean = self.clean_rows_mask()
            col_rows = self.col_rows
            got = 0
            for cpos in range(len(self.col_labels)):
                rows = col_rows[cpos]
                if not rows or rows & ~clean:
                    continue
                # Any dominator shares every row of c; scanning one
                # incident row's column set finds them all.
                r0 = (rows & -rows).bit_length() - 1
                m = self.row_cols[r0] & ((1 << cpos) - 1)
                while m:
                    low = m & -m
                    c2 = low.bit_length() - 1
                    m ^= low
                    if not (rows & ~col_rows[c2]):
                        got |= 1 << cpos
                        break
            self._dominated_anchors = got
        return got

    def suffix_potentials(self) -> Tuple[List[List[int]], List[List[int]]]:
        """Per-row ``(sorted column positions, value suffix sums)``.

        ``sums[r][i]`` is the total default value of row *r*'s cells at
        column positions ``cols[r][i:]`` — the most the row can still
        gain from columns strictly above a position, found by bisecting
        ``cols[r]``.  This is the admissible remaining-gain table the v2
        branch-and-bound cut evaluates at every node.
        """
        got = self._suffix_pot
        if got is None:
            values = self.value_table(default_value)
            cols_tbl: List[List[int]] = []
            sums_tbl: List[List[int]] = []
            for rcells in self.cells:
                cs = sorted(rcells)
                suf = [0] * (len(cs) + 1)
                for i in range(len(cs) - 1, -1, -1):
                    suf[i] = suf[i + 1] + values[rcells[cs[i]]]
                cols_tbl.append(cs)
                sums_tbl.append(suf)
            got = (cols_tbl, sums_tbl)
            self._suffix_pot = got
        return got

    def value_table(self, value_fn: ValueFn = default_value) -> List[int]:
        """Per-entry-id values under *value_fn*.

        The table for the pure default value function is computed (or
        copied from the live index) once and cached with the view; any
        other function is evaluated per call because its answers may
        legitimately change between calls
        (the L-shaped cube-state protocol does exactly that).  Cells of
        one node naming the same original cube always receive equal
        values, so marginal sums and gains match ``value_fn``-per-cell
        arithmetic exactly.
        """
        if value_fn is default_value:
            vals = self._default_values
            if vals is None:
                vals = self._default_values = self._values_for(default_value)
            return vals
        return self._values_for(value_fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BitKCView({self.num_rows}×{self.num_cols}, "
            f"{self.num_entries} entries)"
        )


class LiveBitIndex(_BitCells):
    """Slot-addressed bitmask store of a KCMatrix's cells, patched in place.

    Made empty with its matrix, which keeps it as its only store of
    cells: the matrix's mutators call :meth:`add_row`, :meth:`add_col`,
    :meth:`add_cells`, :meth:`remove_row`, :meth:`remove_col`,
    :meth:`relabel_row` and :meth:`relabel_col`, each a single write of
    the change, in O(degree) (a relabel in O(1)).

    Rows and columns sit at stable *slots*: a slot never moves while its
    row or column lives, a removal clears one bit in each incident mask
    and frees the slot, and an insertion takes the lowest free slot, so
    mask width stays bounded by the largest live count.  A relabel only
    rewrites ``row_labels[slot]`` or ``col_labels[slot]``.  Free slots
    have ``None`` labels, empty masks and empty cells.  Entry ids are
    recycled the same way; a free id's cube is ``None`` and its default
    value 0.

    The value table follows :attr:`value_source`: the default value
    until :meth:`bind_values` binds a live source, whose changes then
    arrive through :meth:`set_ref_value`.

    ``row_pot`` holds each row slot's ping-pong seed potential under the
    maintained values, ``Σ_c (|col c| − 1) · value(cell)`` (0 for a free
    slot), as of the column sizes in ``_pot_sizes``.  It is ``None``
    until the first :meth:`potentials` call builds it in bulk.  From
    then on the mutators patch it: a new cell adds its value times its
    column's recorded size minus one, a removed column takes its cells'
    terms back, and every column that gained or lost a row is marked.
    The next :meth:`potentials` call settles each marked column once,
    in O(column degree): its rows shift by their own cells' values
    times the change in its size.  A column touched by several
    mutations between two searches is settled once.  Relabels leave the
    table untouched.

    The index also keeps what the last ping-pong search under the
    maintained values recorded per seed ascent (:meth:`ascent_records`,
    written back by :meth:`keep_ascent_records`; see
    :func:`repro.rectangles.pingpong._ascents_bit` for the reuse rule).
    Once records exist, the mutators mark the slots they patch:
    ``add_row``, ``add_cells``, ``remove_row`` and ``remove_col``'s rows
    mark rows; ``add_col``, ``remove_row``'s columns, ``remove_col`` and
    ``relabel_col`` mark columns, and the columns of every marked row
    count as marked too (that covers ``add_cells``' columns without a
    second set add per cell).  A :meth:`set_ref_value` that changes a
    cell's value marks its row.  ``relabel_row`` marks nothing: an
    ascent reads no row label.  :meth:`drop_derived` drops the records
    and the seed potentials, never the cells.

    Slot order is *not* label order: callers that break ties must do so
    by ``row_labels`` / ``col_labels``.
    """

    __slots__ = (
        "row_labels",
        "col_labels",
        "row_pos",
        "col_pos",
        "row_cols",
        "col_rows",
        "cells",
        "entry_cubes",
        "row_node",
        "node_names",
        "row_cost",
        "col_cost",
        "row_pot",
        "_pot_sizes",
        "_pot_dirty",
        "_ascents",
        "_ascent_key",
        "_dirty_rows",
        "_dirty_cols",
        "_node_ids",
        "_values",
        "value_source",
        "_ref_cells",
        "_overlap",
        "_free_rows",
        "_free_cols",
        "_free_eids",
    )

    def __init__(self, overlap: Dict[int, int]) -> None:
        self.row_labels: List[Optional[int]] = []
        self.col_labels: List[Optional[int]] = []
        self.row_pos: Dict[int, int] = {}
        self.col_pos: Dict[int, int] = {}
        self.row_cols: List[int] = []
        self.col_rows: List[int] = []
        self.cells: List[Dict[int, int]] = []
        self.entry_cubes: List[Optional[Cube]] = []
        self.row_node: List[int] = []
        self.node_names: List[str] = []
        self.row_cost: List[int] = []
        self.col_cost: List[int] = []
        self.row_pot: Optional[List[int]] = None
        # Per column slot: the size row_pot reflects; the column slots
        # whose size has changed since.
        self._pot_sizes: List[int] = []
        self._pot_dirty: Set[int] = set()
        # Seed slot → its last recorded ascent, under the search
        # parameters _ascent_key; None until a default-value search
        # keeps records, and the mutators mark slots only from then on.
        self._ascents: Optional[Dict[int, tuple]] = None
        self._ascent_key: Optional[tuple] = None
        self._dirty_rows: Set[int] = set()
        self._dirty_cols: Set[int] = set()
        self._node_ids: Dict[str, int] = {}
        self._values: List[int] = []
        # The value function _values holds, and once a live source is
        # bound, each cube ref's cells as (row slot, column slot).
        self.value_source: ValueFn = default_value
        self._ref_cells: Optional[Dict[CubeRef, List[Tuple[int, int]]]] = None
        # The matrix's own overlap counts (row label → overlapping
        # cells), kept current by its mutators.
        self._overlap: Dict[int, int] = overlap
        self._free_rows: List[int] = []
        self._free_cols: List[int] = []
        self._free_eids: List[int] = []

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return len(self.row_pos)

    @property
    def num_cols(self) -> int:
        return len(self.col_pos)

    @property
    def num_entries(self) -> int:
        return len(self.entry_cubes) - len(self._free_eids)

    def value_table(self, value_fn: ValueFn = default_value) -> List[int]:
        """Per-entry-id values under *value_fn* (free ids read 0).

        The table under :attr:`value_source` is maintained with the
        cells and returned as is; any other function is evaluated per
        call.
        """
        if value_fn is self.value_source:
            return self._values
        return self._values_for(value_fn)

    def bind_values(self, source: ValueFn) -> None:
        """Keep the value table under *source* from now on.

        *source* values a cell as ``source(node, cube)`` without side
        effects, and must report every later change of a cube ref's
        value through :meth:`set_ref_value`.  Binding revalues every
        live cell once and drops the seed potentials and ascent records,
        which were kept under the previous values.
        """
        self.value_source = source
        values = self._values
        cubes = self.entry_cubes
        names = self.node_names
        row_node = self.row_node
        refs: Dict[CubeRef, List[Tuple[int, int]]] = {}
        for rslot, rcells in enumerate(self.cells):
            if rcells:
                name = names[row_node[rslot]]
                for cslot, eid in rcells.items():
                    cube = cubes[eid]
                    values[eid] = source(name, cube)
                    refs.setdefault((name, cube), []).append((rslot, cslot))
        self._ref_cells = refs
        self.row_pot = None
        self._pot_dirty.clear()
        self._ascents = None
        self._ascent_key = None
        self._dirty_rows.clear()
        self._dirty_cols.clear()

    def set_ref_value(self, ref: CubeRef, value: int) -> None:
        """The bound source's value of *ref* is now *value*: patch its
        cells, shift their rows' seed potentials by ``(column size − 1)
        · δ`` as a cell edit does, and mark the rows."""
        slots = self._ref_cells.get(ref)
        if not slots:
            return
        values = self._values
        cells = self.cells
        pot = self.row_pot
        recording = self._ascents is not None
        for rslot, cslot in slots:
            eid = cells[rslot][cslot]
            delta = value - values[eid]
            if delta:
                values[eid] = value
                if pot is not None:
                    pot[rslot] += (self._pot_sizes[cslot] - 1) * delta
                if recording:
                    self._dirty_rows.add(rslot)

    def _forget_cell(self, rslot: int, cslot: int, eid: int) -> None:
        """Drop a removed cell from the bound source's ref map."""
        ref = (self.node_names[self.row_node[rslot]], self.entry_cubes[eid])
        slots = self._ref_cells[ref]
        slots.remove((rslot, cslot))
        if not slots:
            del self._ref_cells[ref]

    def potentials(self) -> List[int]:
        """Per-slot seed potentials under the maintained values (``row_pot``).

        Built in bulk on the first call; later calls settle only the
        columns whose size changed since the previous call.
        """
        pot = self.row_pot
        if pot is None:
            self._pot_sizes = [popcount(mask) for mask in self.col_rows]
            pot = self.row_pot = seed_potentials(self.cells, self._pot_sizes, self._values)
        elif self._pot_dirty:
            cells = self.cells
            values = self._values
            col_rows = self.col_rows
            sizes = self._pot_sizes
            for cslot in self._pot_dirty:
                mask = col_rows[cslot]
                grown = popcount(mask) - sizes[cslot]
                if grown:
                    sizes[cslot] += grown
                    for r in iter_bits(mask):
                        pot[r] += grown * values[cells[r][cslot]]
            self._pot_dirty.clear()
        return pot

    def ascent_records(self, key: tuple) -> Tuple[Dict[int, tuple], int, AbstractSet[int]]:
        """The last maintained-value search's ascent records, if it ran
        with the parameters *key*, as ``(records, dirty row mask,
        dirty column slots)``; the marks cover every patch since."""
        records = self._ascents
        if records is None or self._ascent_key != key:
            return {}, 0, frozenset()
        cells = self.cells
        cols = self._dirty_cols
        mask = 0
        for slot in self._dirty_rows:
            mask |= 1 << slot
            # add_entry marks only its row: its column is among the
            # row's cells now, or was marked when the row or the
            # column went.
            cols.update(cells[slot])
        return records, mask, cols

    def keep_ascent_records(self, key: tuple, records: Dict[int, tuple]) -> None:
        """Store a finished search's ascent records and clear the marks."""
        self._ascents = records
        self._ascent_key = key
        self._dirty_rows.clear()
        self._dirty_cols.clear()

    def drop_derived(self) -> None:
        """Drop the seed potentials and the ascent records, so the next
        search builds the one and re-runs every seed; the cells and the
        value table stay."""
        self.row_pot = None
        self._pot_dirty.clear()
        self._ascents = None
        self._ascent_key = None
        self._dirty_rows.clear()
        self._dirty_cols.clear()

    def dup_rows(self) -> AbstractSet[int]:
        """Row slots whose cells repeat an original cube.

        Only rows the matrix counts as holding an overlapping cell can
        (see :meth:`BitKCView.dup_rows`); kernel-built matrices have
        none, so this is O(1) for them.
        """
        overlap = self._overlap
        if not overlap:
            return frozenset()
        row_pos = self.row_pos
        return _dup_slots(self.cells, self.entry_cubes, [row_pos[r] for r in overlap])

    # ------------------------------------------------------------------
    # Patching (called by the KCMatrix mutators)
    # ------------------------------------------------------------------
    def add_row(self, label: int, node: str, cokernel: Cube) -> None:
        nid = self._node_ids.get(node)
        if nid is None:
            nid = self._node_ids[node] = len(self.node_names)
            self.node_names.append(node)
        cost = len(cokernel) + 1
        if self._free_rows:
            slot = heappop(self._free_rows)
            self.row_labels[slot] = label
            self.row_node[slot] = nid
            self.row_cost[slot] = cost
        else:
            slot = len(self.row_labels)
            self.row_labels.append(label)
            self.row_cols.append(0)
            self.cells.append({})
            self.row_node.append(nid)
            self.row_cost.append(cost)
            if self.row_pot is not None:
                self.row_pot.append(0)
        self.row_pos[label] = slot
        if self._ascents is not None:
            self._dirty_rows.add(slot)

    def add_col(self, label: int, cube: Cube) -> None:
        if self._free_cols:
            slot = heappop(self._free_cols)
            self.col_labels[slot] = label
            self.col_cost[slot] = len(cube)
        else:
            slot = len(self.col_labels)
            self.col_labels.append(label)
            self.col_rows.append(0)
            self.col_cost.append(len(cube))
            if self.row_pot is not None:
                self._pot_sizes.append(0)
        self.col_pos[label] = slot
        if self._ascents is not None:
            self._dirty_cols.add(slot)

    def add_cells(self, rslot: int, cells: Sequence[Tuple[int, Cube]]) -> None:
        """Store row slot *rslot*'s new cells, ``(column slot, cube)``
        each, in order; every one must be empty."""
        refs = self._ref_cells
        if refs is not None:
            name = self.node_names[self.row_node[rslot]]
            source = self.value_source
        free = self._free_eids
        cubes = self.entry_cubes
        values = self._values
        pot = self.row_pot
        rcells = self.cells[rslot]
        col_rows = self.col_rows
        bit = 1 << rslot
        mask = 0
        for cslot, cube in cells:
            if refs is None:
                value = len(cube)
            else:
                value = source(name, cube)
                refs.setdefault((name, cube), []).append((rslot, cslot))
            if free:
                eid = free.pop()
                cubes[eid] = cube
                values[eid] = value
            else:
                eid = len(cubes)
                cubes.append(cube)
                values.append(value)
            if pot is not None:
                pot[rslot] += (self._pot_sizes[cslot] - 1) * value
                self._pot_dirty.add(cslot)
            rcells[cslot] = eid
            mask |= 1 << cslot
            col_rows[cslot] |= bit
        self.row_cols[rslot] |= mask
        if self._ascents is not None:
            self._dirty_rows.add(rslot)

    def remove_row(self, label: int) -> None:
        slot = self.row_pos.pop(label)
        keep = ~(1 << slot)
        col_rows = self.col_rows
        cells = self.cells
        cubes = self.entry_cubes
        values = self._values
        free = self._free_eids
        if self._ref_cells is not None:
            for cslot, eid in cells[slot].items():
                self._forget_cell(slot, cslot, eid)
        for cslot, eid in cells[slot].items():
            col_rows[cslot] &= keep
            cubes[eid] = None
            values[eid] = 0
            free.append(eid)
        if self.row_pot is not None:
            self.row_pot[slot] = 0
            self._pot_dirty.update(cells[slot])
        if self._ascents is not None:
            self._dirty_rows.add(slot)
            self._dirty_cols.update(cells[slot])
        cells[slot] = {}
        self.row_cols[slot] = 0
        self.row_labels[slot] = None
        heappush(self._free_rows, slot)

    def remove_col(self, label: int) -> None:
        slot = self.col_pos.pop(label)
        keep = ~(1 << slot)
        cells = self.cells
        row_cols = self.row_cols
        cubes = self.entry_cubes
        values = self._values
        free = self._free_eids
        pot = self.row_pot
        if pot is not None:
            shar1 = self._pot_sizes[slot] - 1
            self._pot_sizes[slot] = 0
            self._pot_dirty.discard(slot)
        rows = self.col_rows[slot]
        if self._ascents is not None:
            self._dirty_cols.add(slot)
            if rows:  # the greedy loop only drops columns left empty
                self._dirty_rows.update(iter_bits(rows))
        for rslot in iter_bits(rows):
            eid = cells[rslot].pop(slot)
            if self._ref_cells is not None:
                self._forget_cell(rslot, slot, eid)
            if pot is not None:
                pot[rslot] -= shar1 * values[eid]
            cubes[eid] = None
            values[eid] = 0
            free.append(eid)
            row_cols[rslot] &= keep
        self.col_rows[slot] = 0
        self.col_labels[slot] = None
        heappush(self._free_cols, slot)

    def relabel_row(self, old: int, new: int) -> None:
        slot = self.row_pos.pop(old)
        self.row_pos[new] = slot
        self.row_labels[slot] = new

    def relabel_col(self, old: int, new: int) -> None:
        slot = self.col_pos.pop(old)
        self.col_pos[new] = slot
        self.col_labels[slot] = new
        if self._ascents is not None:
            self._dirty_cols.add(slot)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LiveBitIndex({self.num_rows}×{self.num_cols}, "
            f"{self.num_entries} entries)"
        )
