"""The sparse co-kernel cube matrix with global offset labeling.

Row and column indices are *labels*, not positions: the parallel
algorithms give processor *p* the index space ``p·OFFSET + k`` (the
paper's "offset which is a factor of the processor id" — processor 2's
first kernel is row 200001).  Labels therefore stay consistent across
replicas regardless of generation order, and sub-matrices exchanged
between processors splice together without renumbering.

:class:`KCMatrix` is one object: its label maps and its bitset cell
store, which both rectangle searches, ``apply_rectangle``, the
cube-state tables and the audits read directly.  Every mutator writes
each fact once; the only tables derived from the store (the exhaustive
search's label order, ping-pong's seed potentials, both searches' reuse
records) are dropped or patched by the mutators.  The bitset helpers
and the label-order tables live in :mod:`repro.rectangles.bitview`.

The sequential and replicated greedy loops use a second scheme,
:class:`IncrementalKCMatrix`: labels derived from node names, kernel
positions and (replicated) node owners, so a matrix patched after each
extraction still sorts exactly like a fresh :func:`build_kc_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import AbstractSet, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.algebra.cube import Cube, cube_union
from repro.algebra.kernels import Kernel, kernels
from repro.algebra.sop import Sop
from repro.rectangles.bitview import LabelTables, iter_bits, popcount, seed_potentials
from repro.rectangles.rectangle import ValueFn, default_value
from repro.verify import audit as _audit

# The paper labels processor p's first kernel p·100000 + 1.
LABEL_OFFSET = 100_000

CubeRef = Tuple[str, Cube]  # (node name, original SOP cube)


@dataclass(frozen=True)
class RowInfo:
    """A row: one (node, co-kernel) pair, and the store slot it sits at
    (not part of its identity: equal rows of two matrices may sit at
    different slots)."""

    node: str
    cokernel: Cube
    slot: int = field(compare=False)


class KCMatrix:
    """Sparse KC matrix keyed by integer row/column labels.

    **Labels.**  ``rows`` maps a row label to its :class:`RowInfo`
    (node, co-kernel and slot), ``cols`` a column label to its kernel
    cube, ``col_of_cube`` is the inverse of ``cols``, and ``col_pos``
    gives each column label its slot.  The cell ``(r, c)`` holds the
    original SOP cube ``rows[r].cokernel ∪ cols[c]`` of ``rows[r].node``.
    ``overlap_rows`` counts, per row label, the cells whose column cube
    overlaps the row's co-kernel (never any for kernel-built matrices);
    only such rows can repeat a cube.

    **The store.**  Rows and columns sit at stable *slots*: a slot never
    moves while its row or column lives, a removal clears one bit in
    each incident mask and frees the slot, and an insertion takes the
    lowest free slot, so mask width stays bounded by the largest live
    count.  Per slot: ``row_labels`` / ``col_labels`` (``None`` when
    free), the bitmasks ``row_cols`` (a row's column slots) and
    ``col_rows`` (a column's row slots), ``row_cells`` (column slot →
    *entry id*), ``row_node`` (an id into ``node_names``) and the costs
    ``row_cost`` (``len(cokernel) + 1``) and ``col_cost``
    (``len(kernel_cube)``).  An entry id indexes ``entry_cubes`` and the
    value table; ids are recycled like slots, and a free id's cube is
    ``None`` and its value 0.  A relabel rewrites one label map entry
    and one slot label, in O(1).  Slot order is *not* label order:
    every tie-break and every ordered walk reads the labels.

    **Values.**  The value table follows :attr:`value_source`: the
    default value until :meth:`bind_values` binds a live source, whose
    changes then arrive through :meth:`set_ref_value`.

    **Derived tables.**  Every mutator drops the exhaustive search's
    label-order tables (:meth:`search_tables`).  ``row_pot`` holds each
    row slot's ping-pong seed potential under the maintained values,
    ``Σ_c (|col c| − 1) · value(cell)`` (0 for a free slot), as of the
    column sizes in ``_pot_sizes``.  It is ``None`` until the first
    :meth:`potentials` call builds it in bulk; from then on the mutators
    patch it (a new cell adds its value times its column's recorded size
    minus one, a removed column takes its cells' terms back) and mark
    every column that gained or lost a row, and the next
    :meth:`potentials` call settles each marked column once, in
    O(column degree).  Relabels leave it untouched.

    **Reuse records and their marks.**  Once records exist the mutators
    mark what they change, in two sets of marks with their own rules:

    - the last ping-pong search's seed ascents (:meth:`ascent_records`;
      see :func:`repro.rectangles.pingpong._ascents_bit`), marked by
      slot: ``add_row``, ``add_entries``, ``remove_row`` and
      ``remove_col``'s rows mark rows; ``ensure_col``, ``remove_row``'s
      columns, ``remove_col`` and ``relabel_col`` mark columns, and the
      columns of every marked row count as marked too.  A
      :meth:`set_ref_value` that changes a cell's value marks its row.
      ``relabel_row`` marks nothing: an ascent reads no row label;
    - the exhaustive search's per-anchor records
      (:meth:`anchor_records`), rows marked by slot and columns by
      label: ``add_entries`` marks its row, ``remove_row`` the row's
      columns, ``remove_col`` and ``relabel_col`` the column's rows and
      the label that goes, and ``relabel_row`` the row.  A marked row
      stands for all of its columns (a freed slot has none, and a
      reused one's cells marked it when they came).  ``add_row`` and
      ``ensure_col`` mark nothing: a row or column without cells is in
      no anchor's subtree.

    :meth:`_touch` drops every derived table and record, never the
    cells.
    """

    __slots__ = (
        # Labels
        "rows", "cols", "col_of_cube", "col_pos", "overlap_rows",
        # The store, per slot and per entry id
        "row_labels", "col_labels", "row_cols", "col_rows", "row_cells",
        "row_node", "node_names", "_node_ids", "row_cost", "col_cost",
        "entry_cubes", "_values", "value_source", "_ref_cells",
        "_free_rows", "_free_cols", "_free_eids",
        # Derived tables and reuse records
        "_tables", "row_pot", "_pot_sizes", "_pot_dirty",
        "_ascents", "_ascent_key", "_ascent_rows", "_ascent_cols",
        "_anchors", "_anchor_key", "_anchor_rows", "_anchor_cols",
        "__weakref__",
    )

    def __init__(self) -> None:
        self.rows: Dict[int, RowInfo] = {}
        self.cols: Dict[int, Cube] = {}
        self.col_of_cube: Dict[Cube, int] = {}
        self.col_pos: Dict[int, int] = {}
        self.overlap_rows: Dict[int, int] = {}
        self.row_labels: List[Optional[int]] = []
        self.col_labels: List[Optional[int]] = []
        self.row_cols: List[int] = []
        self.col_rows: List[int] = []
        self.row_cells: List[Dict[int, int]] = []
        self.row_node: List[int] = []
        self.node_names: List[str] = []
        self._node_ids: Dict[str, int] = {}
        self.row_cost: List[int] = []
        self.col_cost: List[int] = []
        self.entry_cubes: List[Optional[Cube]] = []
        self._values: List[int] = []
        # The value function _values holds, and once a live source is
        # bound, each cube ref's cells as (row slot, column slot).
        self.value_source: ValueFn = default_value
        self._ref_cells: Optional[Dict[CubeRef, List[Tuple[int, int]]]] = None
        self._free_rows: List[int] = []
        self._free_cols: List[int] = []
        self._free_eids: List[int] = []
        self._tables: Optional[LabelTables] = None
        self.row_pot: Optional[List[int]] = None
        # Per column slot: the size row_pot reflects; the column slots
        # whose size has changed since.
        self._pot_sizes: List[int] = []
        self._pot_dirty: Set[int] = set()
        # Seed slot → its last recorded ascent, under the search
        # parameters _ascent_key; None until a default-value search
        # keeps records, and the mutators mark only from then on.
        self._ascents: Optional[Dict[int, tuple]] = None
        self._ascent_key: Optional[tuple] = None
        self._ascent_rows: Set[int] = set()
        self._ascent_cols: Set[int] = set()
        # Anchor column label → its record, for the min_cols in
        # _anchor_key; None until an exhaustive search keeps records.
        self._anchors: Optional[Dict[int, tuple]] = None
        self._anchor_key: Optional[int] = None
        self._anchor_rows: Set[int] = set()
        self._anchor_cols: Set[int] = set()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _touch(self) -> None:
        """Drop every table derived from the store: the label-order
        tables, the seed potentials, and the ascent and anchor records
        with their marks.  The next search then pays for all of them,
        as on a fresh matrix; the cells and the value table stay."""
        self._tables = None
        self.row_pot = None
        self._pot_dirty.clear()
        self._ascents = None
        self._ascent_key = None
        self._ascent_rows.clear()
        self._ascent_cols.clear()
        self._anchors = None
        self._anchor_rows.clear()
        self._anchor_cols.clear()

    def add_row(self, label: int, node: str, cokernel: Cube) -> None:
        if label in self.rows:
            raise ValueError(f"duplicate row label {label}")
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
            self.row_cells.append({})
            self.row_node.append(nid)
            self.row_cost.append(cost)
            if self.row_pot is not None:
                self.row_pot.append(0)
        self.rows[label] = RowInfo(node, cokernel, slot)
        if self._ascents is not None:
            self._ascent_rows.add(slot)
        if _audit.enabled():
            _audit.audit_row_added(self, label)
        self._tables = None

    def ensure_col(self, cube: Cube, label_factory: Callable[[], int]) -> int:
        """Return the column label for *cube*, creating it if new."""
        got = self.col_of_cube.get(cube)
        if got is not None:
            return got
        label = label_factory()
        if label in self.cols:
            raise ValueError(f"duplicate column label {label}")
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
        self.cols[label] = cube
        self.col_of_cube[cube] = label
        self.col_pos[label] = slot
        if self._ascents is not None:
            self._ascent_cols.add(slot)
        if _audit.enabled():
            _audit.audit_col_added(self, label)
        self._tables = None
        return label

    def add_entry(self, row: int, col: int) -> None:
        self.add_entries(row, (col,))

    def add_entries(self, row: int, cols: Sequence[int]) -> None:
        """``add_entry(row, c)`` for each column label *c* of *cols*, in
        order, as one write of the row's new cells."""
        info = self.rows[row]
        rslot = info.slot
        cokernel = info.cokernel
        width = len(cokernel)
        rcells = self.row_cells[rslot]
        col_pos = self.col_pos
        col_cubes = self.cols
        refs = self._ref_cells
        source = self.value_source
        free = self._free_eids
        cubes = self.entry_cubes
        values = self._values
        pot = self.row_pot
        col_rows = self.col_rows
        bit = 1 << rslot
        mask = overlap = 0
        for col in dict.fromkeys(cols):
            cslot = col_pos[col]
            if cslot in rcells:
                continue
            kc = col_cubes[col]
            cube = cube_union(cokernel, kc)
            if len(cube) != width + len(kc):
                overlap += 1
            if refs is None:
                value = len(cube)
            else:
                value = source(info.node, cube)
                refs.setdefault((info.node, cube), []).append((rslot, cslot))
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
        if mask:
            self.row_cols[rslot] |= mask
            if overlap:
                self.overlap_rows[row] = self.overlap_rows.get(row, 0) + overlap
            if self._ascents is not None:
                self._ascent_rows.add(rslot)
            if self._anchors is not None:
                self._anchor_rows.add(rslot)
        if _audit.enabled():
            for col in cols:
                _audit.audit_entry_added(self, row, col)
        self._tables = None

    def _forget_cell(self, rslot: int, cslot: int, eid: int) -> None:
        """Drop a removed cell from the bound source's ref map."""
        ref = (self.node_names[self.row_node[rslot]], self.entry_cubes[eid])
        slots = self._ref_cells[ref]
        slots.remove((rslot, cslot))
        if not slots:
            del self._ref_cells[ref]

    def remove_row(self, label: int) -> None:
        info = self.rows.pop(label, None)
        if info is not None:
            slot = info.slot
            rcells = self.row_cells[slot]
            if self._anchors is not None:
                self._anchor_cols.update(map(self.col_labels.__getitem__, rcells))
            if self._ascents is not None:
                self._ascent_rows.add(slot)
                self._ascent_cols.update(rcells)
            if self.row_pot is not None:
                self.row_pot[slot] = 0
                self._pot_dirty.update(rcells)
            if self._ref_cells is not None:
                for cslot, eid in rcells.items():
                    self._forget_cell(slot, cslot, eid)
            keep = ~(1 << slot)
            col_rows = self.col_rows
            cubes = self.entry_cubes
            values = self._values
            free = self._free_eids
            for cslot, eid in rcells.items():
                col_rows[cslot] &= keep
                cubes[eid] = None
                values[eid] = 0
                free.append(eid)
            self.row_cells[slot] = {}
            self.row_cols[slot] = 0
            self.row_labels[slot] = None
            heappush(self._free_rows, slot)
            self.overlap_rows.pop(label, None)
        if _audit.enabled():
            _audit.audit_row_removed(self, label)
        self._tables = None

    def remove_col(self, label: int) -> None:
        cube = self.cols.pop(label, None)
        if cube is not None:
            del self.col_of_cube[cube]
            slot = self.col_pos.pop(label)
            rows = self.col_rows[slot]
            if self._anchors is not None:
                self._anchor_cols.add(label)
                self._anchor_rows.update(iter_bits(rows))
            if self._ascents is not None:
                self._ascent_cols.add(slot)
                self._ascent_rows.update(iter_bits(rows))
            pot = self.row_pot
            if pot is not None:
                shar1 = self._pot_sizes[slot] - 1
                self._pot_sizes[slot] = 0
                self._pot_dirty.discard(slot)
            overlap = self.overlap_rows
            row_labels = self.row_labels
            row_cells = self.row_cells
            row_cols = self.row_cols
            cubes = self.entry_cubes
            values = self._values
            free = self._free_eids
            keep = ~(1 << slot)
            for rslot in iter_bits(rows):
                eid = row_cells[rslot].pop(slot)
                row = row_labels[rslot]
                if row in overlap and len(cubes[eid]) != len(self.rows[row].cokernel) + len(cube):
                    if overlap[row] == 1:
                        del overlap[row]
                    else:
                        overlap[row] -= 1
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
        if _audit.enabled():
            _audit.audit_col_removed(self, label)
        self._tables = None

    def relabel_col(self, old: int, new: int) -> None:
        """Move column *old* — its cube and cells — to *new*, in O(1).

        Used by :class:`IncrementalKCMatrix` when a column's first
        occurrence moves and its order-preserving label must move with
        it.
        """
        if new in self.cols:
            raise ValueError(f"duplicate column label {new}")
        cube = self.cols.pop(old)
        self.cols[new] = cube
        self.col_of_cube[cube] = new
        slot = self.col_pos.pop(old)
        self.col_pos[new] = slot
        self.col_labels[slot] = new
        if self._anchors is not None:
            self._anchor_cols.add(old)
            self._anchor_rows.update(iter_bits(self.col_rows[slot]))
        if self._ascents is not None:
            self._ascent_cols.add(slot)
        if _audit.enabled():
            _audit.audit_col_relabeled(self, old, new)
        self._tables = None

    def relabel_row(self, old: int, new: int) -> None:
        """Move row *old* — its info and cells — to *new*, in O(1).

        Used by :class:`IncrementalKCMatrix` when a kept kernel's index
        within its node shifts and its order-preserving label must move
        with it.
        """
        if new in self.rows:
            raise ValueError(f"duplicate row label {new}")
        info = self.rows.pop(old)
        self.rows[new] = info
        self.row_labels[info.slot] = new
        if old in self.overlap_rows:
            self.overlap_rows[new] = self.overlap_rows.pop(old)
        if self._anchors is not None:
            self._anchor_rows.add(info.slot)
        if _audit.enabled():
            _audit.audit_row_relabeled(self, old, new)
        self._tables = None

    def take_columns(self, other: "KCMatrix", col_labels: Iterable[int]) -> None:
        """Copy into this matrix *other*'s columns among *col_labels*, in
        label order, with every row holding a cell in them and those
        cells.  Labels both matrices hold must name the same row or
        cube (the offset labeling's guarantee)."""
        for c in sorted(col_labels):
            cube = other.cols.get(c)
            if cube is None:
                continue
            self.ensure_col(cube, lambda: c)
            for r in sorted(other.rows_of_col(c)):
                if r not in self.rows:
                    info = other.rows[r]
                    self.add_row(r, info.node, info.cokernel)
                self.add_entry(r, c)

    def submatrix_columns(self, col_labels: Iterable[int]) -> "KCMatrix":
        """Restriction to a set of columns (all rows with entries kept),
        in O(entries kept)."""
        out = KCMatrix()
        out.take_columns(self, set(col_labels))
        if _audit.enabled():
            _audit.audit_kcmatrix(out)
        return out

    # ------------------------------------------------------------------
    # Values
    # ------------------------------------------------------------------
    def value_table(self, value_fn: ValueFn = default_value) -> List[int]:
        """Per-entry-id values under *value_fn* (free ids read 0).

        The table under :attr:`value_source` is maintained with the
        cells and returned as is; any other function is evaluated once
        per live cell, per call.
        """
        if value_fn is self.value_source:
            return self._values
        names = self.node_names
        row_node = self.row_node
        cubes = self.entry_cubes
        out: List[int] = [0] * len(cubes)
        for rslot, rcells in enumerate(self.row_cells):
            if rcells:
                name = names[row_node[rslot]]
                for eid in rcells.values():
                    out[eid] = value_fn(name, cubes[eid])
        return out

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
        for rslot, rcells in enumerate(self.row_cells):
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
        self._ascent_rows.clear()
        self._ascent_cols.clear()

    def set_ref_value(self, ref: CubeRef, value: int) -> None:
        """The bound source's value of *ref* is now *value*: patch its
        cells, shift their rows' seed potentials by ``(column size − 1)
        · δ`` as a cell edit does, and mark the rows."""
        slots = self._ref_cells.get(ref)
        if not slots:
            return
        values = self._values
        row_cells = self.row_cells
        pot = self.row_pot
        recording = self._ascents is not None
        for rslot, cslot in slots:
            eid = row_cells[rslot][cslot]
            delta = value - values[eid]
            if delta:
                values[eid] = value
                if pot is not None:
                    pot[rslot] += (self._pot_sizes[cslot] - 1) * delta
                if recording:
                    self._ascent_rows.add(rslot)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_cols(self) -> int:
        return len(self.cols)

    @property
    def num_entries(self) -> int:
        return len(self.entry_cubes) - len(self._free_eids)

    def sparsity(self) -> float:
        """Fraction of occupied cells — the α/γ of the paper's Eq. 3."""
        cells = self.num_rows * self.num_cols
        return self.num_entries / cells if cells else 0.0

    def has_entry(self, row: int, col: int) -> bool:
        info = self.rows.get(row)
        return info is not None and self.col_pos.get(col) in self.row_cells[info.slot]

    def entry_cube(self, row: int, col: int) -> Cube:
        return self.entry_cubes[self.row_cells[self.rows[row].slot][self.col_pos[col]]]

    def cube_ref(self, row: int, col: int) -> CubeRef:
        return (self.rows[row].node, self.entry_cube(row, col))

    def cols_of_row(self, row: int) -> Set[int]:
        """The column labels of *row*'s cells."""
        return set(map(self.col_labels.__getitem__, self.row_cells[self.rows[row].slot]))

    def rows_of_col(self, col: int) -> Set[int]:
        """The row labels of *col*'s cells."""
        return set(map(self.row_labels.__getitem__, iter_bits(self.col_rows[self.col_pos[col]])))

    def cells(self) -> Dict[Tuple[int, int], Cube]:
        """Every cell as ``{(row label, column label): cube}``, read
        afresh from the store (for checks and oracles, not hot paths)."""
        col_labels = self.col_labels
        cubes = self.entry_cubes
        row_cells = self.row_cells
        return {
            (row, col_labels[cslot]): cubes[eid]
            for row, info in self.rows.items()
            for cslot, eid in row_cells[info.slot].items()
        }

    def dup_rows(self) -> AbstractSet[int]:
        """Row slots whose cells repeat an original cube.

        KC matrices built from kernels never have these: a row's cubes
        are ``cokernel ∪ kc_j`` with the kernel cubes disjoint from the
        co-kernel, so distinct columns give distinct cubes.  Hand-built
        matrices can violate that (a column cube may overlap the
        co-kernel), and the distinct-cube gain correction must then also
        dedupe within single rows.  Only rows counted in
        :attr:`overlap_rows` can repeat a cube, so only those are
        scanned, and this is O(1) for kernel-built matrices.
        """
        out: Set[int] = set()
        cubes = self.entry_cubes
        for row in self.overlap_rows:
            slot = self.rows[row].slot
            rcells = self.row_cells[slot]
            if len(rcells) > 1 and len({cubes[eid] for eid in rcells.values()}) < len(rcells):
                out.add(slot)
        return out

    def rect_gain(
        self,
        row_slots: Sequence[int],
        col_slots: Sequence[int],
        values: List[int],
    ) -> int:
        """Exact distinct-cube-counted gain of a slot rectangle.

        Order-free: cells of one node naming the same cube carry equal
        values, so which of them counts first does not matter.
        """
        row_cells = self.row_cells
        row_node = self.row_node
        gain = 0
        for cslot in col_slots:
            gain -= self.col_cost[cslot]
        counts: Dict[int, int] = {}
        for rslot in row_slots:
            gain -= self.row_cost[rslot]
            nid = row_node[rslot]
            counts[nid] = counts.get(nid, 0) + 1
        dup = self.dup_rows()
        need: Set[int] = {nid for nid, k in counts.items() if k > 1}
        if dup:
            for rslot in row_slots:
                if rslot in dup:
                    need.add(row_node[rslot])
        if not need:
            # Every cell is a distinct (node, cube) ref: no correction.
            for rslot in row_slots:
                rcells = row_cells[rslot]
                for cslot in col_slots:
                    gain += values[rcells[cslot]]
            return gain
        cubes = self.entry_cubes
        seen: Dict[int, Set[Cube]] = {nid: set() for nid in need}
        for rslot in row_slots:
            rcells = row_cells[rslot]
            node_seen = seen.get(row_node[rslot])
            if node_seen is None:
                for cslot in col_slots:
                    gain += values[rcells[cslot]]
            else:
                for cslot in col_slots:
                    eid = rcells[cslot]
                    cube = cubes[eid]
                    if cube not in node_seen:
                        node_seen.add(cube)
                        gain += values[eid]
        return gain

    def covered_cubes_by_node(self, rect) -> Dict[str, Set[Cube]]:
        """Distinct original cubes a (label) rectangle covers, per node."""
        out: Dict[str, Set[Cube]] = {}
        row_cells = self.row_cells
        cubes = self.entry_cubes
        col_slots = [self.col_pos[c] for c in rect.cols]
        for rlab in rect.rows:
            info = self.rows[rlab]
            rcells = row_cells[info.slot]
            per_node = out.setdefault(info.node, set())
            for cslot in col_slots:
                per_node.add(cubes[rcells[cslot]])
        return out

    # ------------------------------------------------------------------
    # Derived tables and reuse records
    # ------------------------------------------------------------------
    def search_tables(self) -> LabelTables:
        """The exhaustive search's label-order tables over the store
        (:class:`~repro.rectangles.bitview.LabelTables`), derived from
        the live slots at most once per matrix version: every mutation
        drops them.  Under ``REPRO_CHECK=1`` each derivation first
        checks the whole store."""
        tables = self._tables
        if tables is None:
            if _audit.enabled():
                _audit.audit_store(self)
            tables = self._tables = LabelTables(self)
        return tables

    def potentials(self) -> List[int]:
        """Per-slot seed potentials under the maintained values (``row_pot``).

        Built in bulk on the first call; later calls settle only the
        columns whose size changed since the previous call.
        """
        pot = self.row_pot
        if pot is None:
            self._pot_sizes = [popcount(mask) for mask in self.col_rows]
            pot = self.row_pot = seed_potentials(self.row_cells, self._pot_sizes, self._values)
        elif self._pot_dirty:
            row_cells = self.row_cells
            values = self._values
            col_rows = self.col_rows
            sizes = self._pot_sizes
            for cslot in self._pot_dirty:
                mask = col_rows[cslot]
                grown = popcount(mask) - sizes[cslot]
                if grown:
                    sizes[cslot] += grown
                    for r in iter_bits(mask):
                        pot[r] += grown * values[row_cells[r][cslot]]
            self._pot_dirty.clear()
        return pot

    def ascent_records(self, key: tuple) -> Tuple[Dict[int, tuple], int, AbstractSet[int]]:
        """The last maintained-value search's ascent records, if it ran
        with the parameters *key*, as ``(records, dirty row mask,
        dirty column slots)``; the marks cover every patch since."""
        records = self._ascents
        if records is None or self._ascent_key != key:
            return {}, 0, frozenset()
        row_cells = self.row_cells
        cols = self._ascent_cols
        mask = 0
        for slot in self._ascent_rows:
            mask |= 1 << slot
            # add_entries marks only its row: its columns are among the
            # row's cells now, or were marked when the row or the
            # column went.
            cols.update(row_cells[slot])
        return records, mask, cols

    def keep_ascent_records(self, key: tuple, records: Dict[int, tuple]) -> None:
        """Store a finished search's ascent records and clear the marks."""
        self._ascents = records
        self._ascent_key = key
        self._ascent_rows.clear()
        self._ascent_cols.clear()

    def anchor_records(self, min_cols: int) -> Dict[int, tuple]:
        """The exhaustive search's per-anchor records, for *min_cols*.

        Drops every record the mutators have marked since the last call
        — the anchors a marked row has cells in, and each marked column
        — and clears the marks, so every record returned is clean.  A
        different *min_cols* starts an empty table.  The caller adds and
        replaces records in the returned dict (see
        :func:`repro.rectangles.search._best_rectangle_bit_v2`).
        """
        records = self._anchors
        if records is None or self._anchor_key != min_cols:
            records = self._anchors = {}
            self._anchor_key = min_cols
        else:
            drop = records.pop
            row_cells = self.row_cells
            col_labels = self.col_labels
            for slot in self._anchor_rows:
                for cslot in row_cells[slot]:
                    drop(col_labels[cslot], None)
            for col in self._anchor_cols:
                drop(col, None)
        self._anchor_rows.clear()
        self._anchor_cols.clear()
        return records

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KCMatrix({self.num_rows}×{self.num_cols}, "
            f"{self.num_entries} entries)"
        )




class LabelAllocator:
    """Per-processor label sequence: ``pid·OFFSET + 1, pid·OFFSET + 2, …``"""

    def __init__(self, pid: int = 0, offset: int = LABEL_OFFSET) -> None:
        if pid < 0:
            raise ValueError("processor id must be non-negative")
        self._next = pid * offset + 1
        self._limit = (pid + 1) * offset

    def __call__(self) -> int:
        label = self._next
        if label >= self._limit:
            raise OverflowError("label space for this processor exhausted")
        self._next += 1
        return label


def build_kc_matrix(
    network,
    nodes: Optional[Iterable[str]] = None,
    pid: int = 0,
    kernel_cache: Optional[Dict[str, List[Kernel]]] = None,
    meter=None,
    owner: Optional[Mapping[str, int]] = None,
) -> KCMatrix:
    """Build the KC matrix for *nodes* of *network* (default: all nodes).

    *pid* selects the label space (processor id); sequential callers use
    0.  *owner* (node → processor id) instead labels each node's rows,
    and the columns it meets first, from its owner's label space — the
    replicated algorithm's replica.  *kernel_cache* maps node name →
    kernel list and is filled in (and trusted) when provided, so repeated
    builds over a changing network only re-enumerate kernels of nodes
    dropped from the cache.

    This is the from-scratch builder.  The greedy loops build once and
    then patch an :class:`IncrementalKCMatrix`, whose labels sort exactly
    like this builder's allocation order.
    """
    mat = KCMatrix()
    allocs: Dict[int, Tuple[LabelAllocator, LabelAllocator]] = {}
    node_list = list(nodes) if nodes is not None else list(network.topological_order())
    for node in node_list:
        p = pid if owner is None else owner[node]
        pair = allocs.get(p)
        if pair is None:
            pair = allocs[p] = (LabelAllocator(p), LabelAllocator(p))
        row_alloc, col_alloc = pair
        f: Sop = network.nodes[node]
        if kernel_cache is not None and node in kernel_cache:
            ks = kernel_cache[node]
        else:
            ks = kernels(f, meter=meter)
            if kernel_cache is not None:
                kernel_cache[node] = ks
        for kern in ks:
            row = row_alloc()
            mat.add_row(row, node, kern.cokernel)
            mat.add_entries(row, [mat.ensure_col(kc, col_alloc) for kc in kern.expression])
            if meter is not None:
                meter.charge("kc_entry", len(kern.expression))
    return mat


#: Bits below a row label for the kernel index, and below a column label
#: for the cube's position in its kernel expression.
INDEX_BITS = 20
_INDEX_LIMIT = 1 << INDEX_BITS


def _utf8(name: str) -> bytes:
    return name.encode("utf-8", "surrogatepass")


class IncrementalKCMatrix:
    """A KC matrix patched per extraction, ordered like a fresh build.

    Every tie-break of the rectangle searches follows sorted-label order,
    so the labels here sort exactly as :func:`build_kc_matrix` over
    ``sorted(nodes)`` allocates them:

    - a row's label is ``name_key(node) << INDEX_BITS | kernel index``,
      where ``name_key`` is the node name's UTF-8 bytes zero-padded to a
      fixed width, read as an integer, followed by 16 bits of byte
      length (UTF-8 byte order is code-point order; the length separates
      names that differ only by trailing NULs);
    - a column's label is its first occurrence: the minimum, over the
      rows holding the cube, of ``row label << INDEX_BITS | position of
      the cube in that row's kernel expression``.  Each column keeps the
      set of its occurrence keys; when the minimum moves the column is
      relabelled (:meth:`KCMatrix.relabel_col`, O(1)).

    With an *owner* map (node → processor id) the labels sort like
    ``build_kc_matrix(..., owner=owner)``, whose per-owner allocators
    order rows by (owner, node name, kernel index) and columns by (owner
    of the first-occurrence node, first occurrence).  Both labels gain
    the owner as a prefix above every name-derived bit; the occurrence
    keys stay owner-free, so a column's label still carries its minimum
    key in its low bits, and a relabel moves it to the new minimum's
    owner when that changes.  A node's owner is read when its rows are
    (re)added; the map may grow as nodes are added.

    Built from a ``{node: kernel list}`` map; :attr:`kernels` holds the
    kernels behind the current rows.  :meth:`replace_nodes` patches a
    node by the difference between its old and new kernel lists: the
    rows of dropped kernels go, the rows of kept kernels stay (moved to
    their new index's label when it shifts), and only new kernels get
    new rows; a column whose cube the patch removes and adds again keeps
    its slot.  :attr:`churn` counts the rows the last build or patch
    kept, added and removed.  A name longer than the encoding width
    triggers one rebuild at a wider width.
    """

    def __init__(
        self,
        node_kernels: Dict[str, List[Kernel]],
        owner: Optional[Mapping[str, int]] = None,
    ) -> None:
        self._owner = owner
        self._build(node_kernels, 8)

    def _build(self, node_kernels: Dict[str, List[Kernel]], min_width: int) -> None:
        names = sorted(node_kernels)
        self.matrix = KCMatrix()
        self._width = max([min_width] + [len(_utf8(n)) for n in names])
        name_bits = 8 * self._width + 16
        # An owner sits above the row and occurrence keys it prefixes.
        self._row_shift = name_bits + INDEX_BITS
        self._col_shift = name_bits + 2 * INDEX_BITS
        self._key_mask = (1 << self._col_shift) - 1
        self._name_keys: Dict[str, int] = {}
        # Name key → the owner its node's rows were labelled with.
        self._owners: Dict[int, int] = {}
        self.kernels: Dict[str, List[Kernel]] = {}
        self._occ: Dict[Cube, Set[int]] = {}
        # Label → cube of each column _settle parked in the current patch.
        self._parked: Dict[int, Cube] = {}
        for node in names:
            self._add_node(node, node_kernels[node])
        self.churn: Dict[str, int] = {
            "kc_rows_kept": 0,
            "kc_rows_added": self.matrix.num_rows,
            "kc_rows_removed": 0,
        }

    def _name_key(self, node: str) -> int:
        got = self._name_keys.get(node)
        if got is None:
            raw = _utf8(node)
            pad = 8 * (self._width - len(raw)) + 16
            got = (int.from_bytes(raw, "big") << pad) | len(raw)
            self._name_keys[node] = got
        return got

    def _add_node(self, node: str, ks: List[Kernel]) -> None:
        self.kernels[node] = ks
        if self._owner is not None:
            self._owners[self._name_key(node)] = self._owner[node]
        self._add_rows(node, ks, range(len(ks)))

    def _add_rows(self, node: str, ks: List[Kernel], indices: Iterable[int]) -> None:
        """Add the rows of ``ks[kidx]`` for each *kidx* in *indices*."""
        if len(ks) >= _INDEX_LIMIT:
            raise OverflowError(f"node {node!r} has too many kernels to label")
        mat = self.matrix
        col_of_cube = mat.col_of_cube
        occ = self._occ
        parked = self._parked
        key_mask = self._key_mask
        name_key = self._name_key(node)
        owner = self._owners.get(name_key, 0)
        row_prefix = owner << self._row_shift
        col_prefix = owner << self._col_shift
        base = name_key << INDEX_BITS
        for kidx in indices:
            kern = ks[kidx]
            rk = base | kidx
            row = row_prefix | rk
            mat.add_row(row, node, kern.cokernel)
            if len(kern.expression) >= _INDEX_LIMIT:
                raise OverflowError(f"node {node!r} has a kernel too large to label")
            rkey = rk << INDEX_BITS
            cols = []
            for idx, kc in enumerate(kern.expression):
                key = rkey | idx
                col = col_of_cube.get(kc)
                if col is None:
                    occ[kc] = {key}
                    label = col_prefix | key
                    if label in parked:
                        self._evict(label)
                    col = mat.ensure_col(kc, lambda: label)
                else:
                    keys = occ[kc]
                    if not keys:
                        # A parked column returns at its first new
                        # occurrence, wherever its stale label points.
                        del parked[col]
                    if not keys or key < (col & key_mask):
                        label = col_prefix | key
                        if label != col:
                            if label in parked:
                                self._evict(label)
                            mat.relabel_col(col, label)
                            col = label
                    keys.add(key)
                cols.append(col)
            mat.add_entries(row, cols)

    def _remove_rows(
        self, node: str, ks: List[Kernel], indices: Iterable[int], touched: Set[Cube]
    ) -> None:
        """Remove the rows of ``ks[kidx]`` for each *kidx* in *indices*,
        collecting their cubes in *touched*."""
        mat = self.matrix
        occ = self._occ
        name_key = self._name_key(node)
        row_prefix = self._owners.get(name_key, 0) << self._row_shift
        base = name_key << INDEX_BITS
        for kidx in indices:
            rk = base | kidx
            mat.remove_row(row_prefix | rk)
            rkey = rk << INDEX_BITS
            for idx, kc in enumerate(ks[kidx].expression):
                occ[kc].discard(rkey | idx)
                touched.add(kc)

    def _move_row(
        self, base: int, row_prefix: int, kern: Kernel, old: int, new: int
    ) -> Sop:
        """Move a kept kernel's row from index *old* to *new*, with its
        occurrence keys; return its cubes, whose columns' first
        occurrences may have moved."""
        self.matrix.relabel_row(row_prefix | base | old, row_prefix | base | new)
        occ = self._occ
        old_key = (base | old) << INDEX_BITS
        new_key = (base | new) << INDEX_BITS
        for idx, kc in enumerate(kern.expression):
            keys = occ[kc]
            keys.discard(old_key | idx)
            keys.add(new_key | idx)
        return kern.expression

    def _settle(self, cubes: Iterable[Cube]) -> None:
        """Park each column of *cubes* left without occurrences and
        relabel the others to their current first occurrence.

        A parked column keeps its slot, cube and (now stale) label.
        :meth:`_add_rows` relabels it when the patch adds its cube again,
        and :meth:`replace_nodes` drops it at the end otherwise."""
        mat = self.matrix
        occ = self._occ
        parked = self._parked
        key_mask = self._key_mask
        for kc in cubes:
            keys = occ[kc]
            label = mat.col_of_cube[kc]
            if not keys:
                parked[label] = kc
                continue
            low = min(keys)
            if low != label & key_mask:
                owner = self._owners.get(low >> 2 * INDEX_BITS, 0)
                new = (owner << self._col_shift) | low
                if new in parked:
                    self._evict(new)
                mat.relabel_col(label, new)

    def _evict(self, label: int) -> None:
        """Move the parked column off *label*, which a live occurrence
        now takes, to ``~label``: negative, so no occurrence key can
        take it, and distinct, as the stale labels are."""
        self.matrix.relabel_col(label, ~label)
        self._parked[~label] = self._parked.pop(label)

    def _diff(
        self, node: str, ks: List[Kernel], touched: Set[Cube]
    ) -> Tuple[List[Tuple[Kernel, int, int]], Optional[List[int]]]:
        """Match *node*'s current kernels with *ks* and remove the rows
        of the dropped ones.

        Returns the kept rows whose index shifts, as ``(kernel, old,
        new)`` in an order whose every target label is free when it is
        reached, and the indices of the new kernels — ``None`` when the
        whole node is (re)added: it is new, or its owner changed.
        """
        old = self.kernels.get(node)
        if old is None:
            return [], None
        if self._owner is not None and self._owner[node] != self._owners[self._name_key(node)]:
            self._remove_rows(node, old, range(len(old)), touched)
            return [], None
        self.kernels[node] = ks
        # kernels() sorts each list by (cokernel, expression) and the
        # pairs are unique, so kept kernels pair up in order.  The merge
        # walk only pairs equal kernels, so any list stays correct.
        old_keys = [(k.cokernel, k.expression) for k in old]
        new_keys = [(k.cokernel, k.expression) for k in ks]
        kept: List[Tuple[int, int]] = []
        i = j = 0
        while i < len(old_keys) and j < len(new_keys):
            a = old_keys[i]
            b = new_keys[j]
            if a == b:
                kept.append((i, j))
                i += 1
                j += 1
            elif a < b:
                i += 1
            else:
                j += 1
        kept_old = {o for o, _ in kept}
        kept_new = {n for _, n in kept}
        self._remove_rows(
            node, old, [o for o in range(len(old)) if o not in kept_old], touched
        )
        # Rows shifting up move highest first and rows shifting down
        # lowest first: the label a row moves to is then either free or
        # vacated by a row already moved.
        moves = [(ks[n], o, n) for o, n in reversed(kept) if n > o]
        moves += [(ks[n], o, n) for o, n in kept if n < o]
        return moves, [n for n in range(len(ks)) if n not in kept_new]

    def replace_nodes(self, node_kernels: Dict[str, List[Kernel]]) -> None:
        """Patch the rows of the given nodes (changed or new) to their
        given kernels.

        Each existing node is patched by its kernel diff; a new node, or
        one whose owner changed, is added whole.  The steps run in an
        order that never puts two columns on one label:

        1. the dropped kernels' rows are removed, and every touched
           column is parked when it has no occurrence left, or else
           relabelled to its surviving first occurrence, so every live
           column label is a live occurrence key;
        2. the kept rows whose index shifts move, and the columns of
           each moved row are rechecked right after that move — a
           column still on the label of a row that moved away would
           collide with one relabelled onto a row moving in;
        3. rows are added for the new kernels, and a parked column
           whose cube they bring back is relabelled to its new first
           occurrence;
        4. the columns still parked are dropped.

        A parked column keeps its stale label, which a moved or added
        row can take as an occurrence key; before a column is labelled
        or created there, :meth:`_evict` moves the parked one off it.
        """
        names = sorted(node_kernels)
        mat = self.matrix
        if any(len(_utf8(n)) > self._width for n in names):
            removed = mat.num_rows
            self._build({**self.kernels, **node_kernels}, 2 * self._width)
            self.churn["kc_rows_removed"] = removed
            return
        before = mat.num_rows
        touched: Set[Cube] = set()
        plans = [(node,) + self._diff(node, node_kernels[node], touched) for node in names]
        self._settle(touched)
        for node, moves, _ in plans:
            if moves:
                name_key = self._name_key(node)
                base = name_key << INDEX_BITS
                row_prefix = self._owners.get(name_key, 0) << self._row_shift
                for kern, old, new in moves:
                    self._settle(self._move_row(base, row_prefix, kern, old, new))
        after_removal = mat.num_rows
        kept = 0
        for node, _, added in plans:
            ks = node_kernels[node]
            if added is None:
                self._add_node(node, ks)
            else:
                kept += len(ks) - len(added)
                self._add_rows(node, ks, added)
        occ = self._occ
        for label, kc in self._parked.items():
            del occ[kc]
            mat.remove_col(label)
        self._parked.clear()
        self.churn = {
            "kc_rows_kept": kept,
            "kc_rows_added": mat.num_rows - after_removal,
            "kc_rows_removed": before - after_removal,
        }
