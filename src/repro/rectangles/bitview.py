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
store of cells, and both searches walk it.  It is made with the
matrix, and every mutator of the matrix writes its change here once,
in O(degree) (a relabel in O(1)).  Rows and columns live at stable
*slots* that never move while they live; a removal frees its slot and
the next insertion reuses the lowest free one.  Slot order is
therefore not label order, and every tie-break and every ordered walk
reads the labels: ping-pong ranks seeds and columns by label, and the
exhaustive search walks label-ordered column subsets through the
:class:`LabelTables` (``KCMatrix.search_tables()``), label-order tables
derived from the live slots once per matrix version and dropped by
every mutation.

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
from itertools import accumulate
from typing import AbstractSet, Dict, Iterator, List, Optional, Sequence, Set, Tuple

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


class LiveBitIndex:
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

        KC matrices built from kernels never have these: a row's cubes
        are ``cokernel ∪ kc_j`` with the kernel cubes disjoint from the
        co-kernel, so distinct columns give distinct cubes.  Hand-built
        matrices can violate that (a column cube may overlap the
        co-kernel), and the distinct-cube gain correction must then also
        dedupe within single rows.  Only rows with an overlapping cell
        (``len(cube) != |cokernel| + |kc|``) can repeat a cube; the
        matrix counts them as entries are added
        (:attr:`KCMatrix.overlap_rows`), so only those rows are scanned,
        and this is O(1) for kernel-built matrices.
        """
        out: Set[int] = set()
        cubes = self.entry_cubes
        for row in self._overlap:
            slot = self.row_pos[row]
            rcells = self.cells[slot]
            if len(rcells) > 1 and len({cubes[eid] for eid in rcells.values()}) < len(rcells):
                out.add(slot)
        return out

    def _values_for(self, value_fn: ValueFn) -> List[int]:
        """A fresh per-entry-id table under a non-default *value_fn*."""
        cubes = self.entry_cubes
        names = self.node_names
        row_node = self.row_node
        out: List[int] = [0] * len(cubes)
        for rslot, rcells in enumerate(self.cells):
            if rcells:
                name = names[row_node[rslot]]
                for eid in rcells.values():
                    out[eid] = value_fn(name, cubes[eid])
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
        cells = self.cells
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
                rcells = cells[rslot]
                for cslot in col_slots:
                    gain += values[rcells[cslot]]
            return gain
        cubes = self.entry_cubes
        seen: Dict[int, Set[Cube]] = {nid: set() for nid in need}
        for rslot in row_slots:
            rcells = cells[rslot]
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
        cells = self.cells
        cubes = self.entry_cubes
        names = self.node_names
        row_pos = self.row_pos
        col_slots = [self.col_pos[c] for c in rect.cols]
        for rlab in rect.rows:
            rslot = row_pos[rlab]
            rcells = cells[rslot]
            node = names[self.row_node[rslot]]
            per_node = out.setdefault(node, set())
            for cslot in col_slots:
                per_node.add(cubes[rcells[cslot]])
        return out

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


class LabelTables:
    """The exhaustive search's label-order tables over one version of a
    :class:`LiveBitIndex`.

    Build with :meth:`KCMatrix.search_tables` (cached) rather than
    directly: the matrix drops them at every mutation, so they are
    derived at most once per matrix version, and the column stripes of
    one replicated step share them.  All masks are over slots:

    - ``anchors``: the column labels in sorted order, ``anchor_slots``
      their slots — the order the search walks anchors in, and the list
      *anchor_range* bisects;
    - ``above[s]``: the mask of the column slots whose label is greater
      than column slot *s*'s — the ordered tree's "only extend
      rightwards" filter;
    - ``suf_labels[r]`` / ``suf_sums[r]``: row slot *r*'s column labels
      in sorted order and the suffix sums of its cells' default values
      along them: ``suf_sums[r][bisect_right(suf_labels[r], lab)]`` is
      the most row *r* can still gain from columns labelled above
      *lab*, the branch-and-bound's admissible remaining gain;
    - ``clean``: the rows of *clean* nodes, no two of whose cells
      (across all of the node's rows) name the same original cube, so
      the distinct-cube correction never fires for them;
    - ``dominated``: the columns the search never anchors a subtree at.
      Column *c* is dominated when a column *c2* with a smaller label
      covers a superset of its rows and every row of *c* is clean.
      Under the default value any rectangle anchored at *c* is then
      matched or beaten (gain, then lexicographic tie-break) by one in
      *c2*'s earlier subtree: adding *c2* costs ``|kernel_cube(c2)|``
      but contributes ``|cokernel_r| + |kernel_cube(c2)| + 1`` per row,
      and cleanliness guarantees the distinct-cube correction cannot
      claw that back.  *c* still joins other anchors' subtrees as a
      forced or branched column;
    - ``dup_rows``: the index's duplicate-cube rows
      (:meth:`LiveBitIndex.dup_rows`).
    """

    __slots__ = (
        "index", "anchors", "anchor_slots", "above", "suf_labels", "suf_sums",
        "clean", "dominated", "dup_rows",
    )

    def __init__(self, index: LiveBitIndex) -> None:
        self.index = index
        col_labels = index.col_labels
        col_rows = index.col_rows
        cells = index.cells
        anchors = sorted(index.col_pos)
        slots = [index.col_pos[lab] for lab in anchors]
        above = [0] * len(col_labels)
        mask = 0
        for slot in reversed(slots):
            above[slot] = mask
            mask |= 1 << slot
        values = index.value_table(default_value)
        suf_labels: List[List[int]] = []
        suf_sums: List[List[int]] = []
        label_of = col_labels.__getitem__
        for rcells in cells:
            order = sorted(rcells, key=label_of)
            suf_labels.append(list(map(label_of, order)))
            sums = list(accumulate([values[rcells[c]] for c in reversed(order)], initial=0))
            sums.reverse()
            suf_sums.append(sums)
        cubes = index.entry_cubes
        row_node = index.row_node
        node_cubes: Dict[int, List[Cube]] = {}
        for slot in index.row_pos.values():
            node_cubes.setdefault(row_node[slot], []).extend(
                map(cubes.__getitem__, cells[slot].values())
            )
        unclean = {nid for nid, cs in node_cubes.items() if len(set(cs)) < len(cs)}
        clean = 0
        for slot in index.row_pos.values():
            if row_node[slot] not in unclean:
                clean |= 1 << slot
        dominated = 0
        for lab, slot in zip(anchors, slots):
            rows = col_rows[slot]
            if not rows or rows & ~clean:
                continue
            # Any dominator shares every row of c; scanning one incident
            # row's columns finds them all.
            for c2 in cells[(rows & -rows).bit_length() - 1]:
                if col_labels[c2] < lab and not rows & ~col_rows[c2]:
                    dominated |= 1 << slot
                    break
        self.anchors: List[int] = anchors
        self.anchor_slots: List[int] = slots
        self.above: List[int] = above
        self.suf_labels = suf_labels
        self.suf_sums = suf_sums
        self.clean: int = clean
        self.dominated: int = dominated
        self.dup_rows: AbstractSet[int] = index.dup_rows()

