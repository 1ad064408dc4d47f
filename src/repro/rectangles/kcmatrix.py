"""The sparse co-kernel cube matrix with global offset labeling.

Row and column indices are *labels*, not positions: the parallel
algorithms give processor *p* the index space ``p·OFFSET + k`` (the
paper's "offset which is a factor of the processor id" — processor 2's
first kernel is row 200001).  Labels therefore stay consistent across
replicas regardless of generation order, and sub-matrices exchanged
between processors splice together without renumbering.

:class:`KCMatrix` names rows and columns by label and keeps its cells in
one store, the live bitset index of :mod:`repro.rectangles.bitview`,
which both rectangle searches walk; the only tables derived from it (the
exhaustive search's label order, ping-pong's seed potentials, both
searches' reuse records) are dropped or patched by the mutators.

The sequential and replicated greedy loops use a second scheme,
:class:`IncrementalKCMatrix`: labels derived from node names, kernel
positions and (replicated) node owners, so a matrix patched after each
extraction still sorts exactly like a fresh :func:`build_kc_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.algebra.cube import Cube, cube_union
from repro.algebra.kernels import Kernel, kernels
from repro.algebra.sop import Sop
from repro.rectangles.bitview import LabelTables, LiveBitIndex, iter_bits
from repro.verify import audit as _audit

# The paper labels processor p's first kernel p·100000 + 1.
LABEL_OFFSET = 100_000

CubeRef = Tuple[str, Cube]  # (node name, original SOP cube)


@dataclass(frozen=True)
class RowInfo:
    """A row: one (node, co-kernel) pair."""

    node: str
    cokernel: Cube


class KCMatrix:
    """Sparse KC matrix keyed by integer row/column labels.

    A label facade over one store: ``rows`` (label → :class:`RowInfo`),
    ``cols`` (label → kernel cube), its inverse ``col_of_cube`` and
    ``node_rows`` name the rows and columns, and the cells live only in
    the live bitset index (:meth:`bitview`), made with the matrix.  The
    cell ``(r, c)`` holds the original SOP cube ``rows[r].cokernel ∪
    cols[c]`` of ``rows[r].node``.  ``overlap_rows`` counts, per row, the
    cells whose column cube overlaps the row's co-kernel (never any for
    kernel-built matrices); only such rows can repeat a cube.

    Every mutator writes its change to the index once and drops the
    exhaustive search's label-order tables (:meth:`search_tables`).

    The exhaustive search keeps one record per anchor column
    (:meth:`anchor_records`).  Once records exist the mutators mark
    what they change: ``add_entry`` marks its row, ``remove_row`` the
    row's columns, ``remove_col`` and ``relabel_col`` the column's
    rows, and ``relabel_row`` the row.  Rows are marked by slot,
    columns by label; a marked row stands for all of its columns at the
    next :meth:`anchor_records` call (a freed slot has none, and a
    reused one's cells marked it when they came).  ``remove_col`` and
    ``relabel_col`` also mark the label that goes, so its record goes
    with it.  ``add_row`` and ``ensure_col`` mark
    nothing: a row or column without cells is in no anchor's subtree.
    """

    __slots__ = (
        "rows", "cols", "col_of_cube", "node_rows", "overlap_rows",
        "_live", "_tables", "_anchors", "_anchor_key", "_dirty_rows", "_dirty_cols",
        "__weakref__",
    )

    def __init__(self) -> None:
        self.rows: Dict[int, RowInfo] = {}
        self.cols: Dict[int, Cube] = {}
        self.col_of_cube: Dict[Cube, int] = {}
        self.node_rows: Dict[str, Set[int]] = {}
        self.overlap_rows: Dict[int, int] = {}
        self._live = LiveBitIndex(self.overlap_rows)
        self._tables: Optional[LabelTables] = None
        # Anchor column label → its record, for the min_cols in
        # _anchor_key; None until an exhaustive search keeps records, and
        # the mutators mark only from then on (rows by slot, columns by
        # label).
        self._anchors: Optional[Dict[int, tuple]] = None
        self._anchor_key: Optional[int] = None
        self._dirty_rows: Set[int] = set()
        self._dirty_cols: Set[int] = set()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _touch(self) -> None:
        """Drop every table derived from the store: the label-order
        tables, the live index's seed potentials and ascent records,
        and the anchor records.  The next search then pays
        for all of them, as on a fresh matrix."""
        self._tables = None
        self._live.drop_derived()
        self._anchors = None
        self._dirty_rows.clear()
        self._dirty_cols.clear()

    def add_row(self, label: int, node: str, cokernel: Cube) -> None:
        if label in self.rows:
            raise ValueError(f"duplicate row label {label}")
        self.rows[label] = RowInfo(node, cokernel)
        got = self.node_rows.get(node)
        if got is None:
            self.node_rows[node] = {label}
        else:
            got.add(label)
        self._live.add_row(label, node, cokernel)
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
        self.cols[label] = cube
        self.col_of_cube[cube] = label
        self._live.add_col(label, cube)
        if _audit.enabled():
            _audit.audit_col_added(self, label)
        self._tables = None
        return label

    def add_entry(self, row: int, col: int) -> None:
        self.add_entries(row, (col,))

    def add_entries(self, row: int, cols: Sequence[int]) -> None:
        """``add_entry(row, c)`` for each column label *c* of *cols*, in
        order, as one write of the row's new cells."""
        live = self._live
        rslot = live.row_pos[row]
        have = live.cells[rslot]
        col_pos = live.col_pos
        cokernel = self.rows[row].cokernel
        width = len(cokernel)
        new = []
        for col in dict.fromkeys(cols):
            cslot = col_pos[col]
            if cslot not in have:
                kc = self.cols[col]
                cube = cube_union(cokernel, kc)
                if len(cube) != width + len(kc):
                    self.overlap_rows[row] = self.overlap_rows.get(row, 0) + 1
                new.append((cslot, cube))
        if new:
            live.add_cells(rslot, new)
            if self._anchors is not None:
                self._dirty_rows.add(rslot)
        if _audit.enabled():
            for col in cols:
                _audit.audit_entry_added(self, row, col)
        self._tables = None

    def remove_row(self, label: int) -> None:
        info = self.rows.pop(label, None)
        if info is not None:
            live = self._live
            if self._anchors is not None:
                cols = live.cells[live.row_pos[label]]
                self._dirty_cols.update(map(live.col_labels.__getitem__, cols))
            live.remove_row(label)
            self.overlap_rows.pop(label, None)
            node_set = self.node_rows[info.node]
            node_set.discard(label)
            if not node_set:
                del self.node_rows[info.node]
        if _audit.enabled():
            _audit.audit_row_removed(self, label)
        self._tables = None

    def remove_col(self, label: int) -> None:
        cube = self.cols.pop(label, None)
        if cube is not None:
            live = self._live
            slot = live.col_pos[label]
            rows = live.col_rows[slot]
            if self._anchors is not None:
                self._dirty_cols.add(label)
                self._dirty_rows.update(iter_bits(rows))
            overlap = self.overlap_rows
            if overlap:
                row_labels = live.row_labels
                for rslot in iter_bits(rows):
                    row = row_labels[rslot]
                    if row in overlap:
                        got = live.entry_cubes[live.cells[rslot][slot]]
                        if len(got) != len(self.rows[row].cokernel) + len(cube):
                            if overlap[row] == 1:
                                del overlap[row]
                            else:
                                overlap[row] -= 1
            del self.col_of_cube[cube]
            live.remove_col(label)
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
        live = self._live
        if self._anchors is not None:
            self._dirty_cols.add(old)
            self._dirty_rows.update(iter_bits(live.col_rows[live.col_pos[old]]))
        live.relabel_col(old, new)
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
        node_set = self.node_rows[info.node]
        node_set.discard(old)
        node_set.add(new)
        if old in self.overlap_rows:
            self.overlap_rows[new] = self.overlap_rows.pop(old)
        live = self._live
        live.relabel_row(old, new)
        if self._anchors is not None:
            self._dirty_rows.add(live.row_pos[new])
        if _audit.enabled():
            _audit.audit_row_relabeled(self, old, new)
        self._tables = None

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
        return self._live.num_entries

    def sparsity(self) -> float:
        """Fraction of occupied cells — the α/γ of the paper's Eq. 3."""
        cells = self.num_rows * self.num_cols
        return self.num_entries / cells if cells else 0.0

    def has_entry(self, row: int, col: int) -> bool:
        live = self._live
        rslot = live.row_pos.get(row)
        cslot = live.col_pos.get(col)
        return rslot is not None and cslot in live.cells[rslot]

    def entry_cube(self, row: int, col: int) -> Cube:
        live = self._live
        return live.entry_cubes[live.cells[live.row_pos[row]][live.col_pos[col]]]

    def cube_ref(self, row: int, col: int) -> CubeRef:
        return (self.rows[row].node, self.entry_cube(row, col))

    def cols_of_row(self, row: int) -> Set[int]:
        """The column labels of *row*'s cells."""
        live = self._live
        return set(map(live.col_labels.__getitem__, live.cells[live.row_pos[row]]))

    def rows_of_col(self, col: int) -> Set[int]:
        """The row labels of *col*'s cells."""
        live = self._live
        return set(map(live.row_labels.__getitem__, iter_bits(live.col_rows[live.col_pos[col]])))

    def cells(self) -> Dict[Tuple[int, int], Cube]:
        """Every cell as ``{(row label, column label): cube}``, read
        afresh from the store (for checks and oracles, not hot paths)."""
        live = self._live
        col_labels = live.col_labels
        cubes = live.entry_cubes
        return {
            (row, col_labels[cslot]): cubes[eid]
            for row, rslot in live.row_pos.items()
            for cslot, eid in live.cells[rslot].items()
        }

    def rows_of_node(self, node: str) -> List[int]:
        """Row labels of *node*, via the maintained ``node_rows`` index."""
        return sorted(self.node_rows.get(node, ()))

    def bitview(self) -> LiveBitIndex:
        """The live bitset index, the matrix's store (see
        :mod:`repro.rectangles.bitview`).  Under ``REPRO_CHECK=1`` every
        call checks the whole store."""
        view = self._live
        if _audit.enabled():
            _audit.audit_bitview(self, view)
        return view

    def search_tables(self) -> LabelTables:
        """The exhaustive search's label-order tables over the store
        (:class:`~repro.rectangles.bitview.LabelTables`), derived from
        the live slots at most once per matrix version: every mutation
        drops them."""
        tables = self._tables
        if tables is None:
            tables = self._tables = LabelTables(self.bitview())
        return tables

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
            live = self._live
            cells = live.cells
            col_labels = live.col_labels
            for slot in self._dirty_rows:
                for cslot in cells[slot]:
                    drop(col_labels[cslot], None)
            for col in self._dirty_cols:
                drop(col, None)
        self._dirty_rows.clear()
        self._dirty_cols.clear()
        return records

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

    def merge(self, other: "KCMatrix") -> None:
        """Splice another (label-consistent) matrix into this one.

        Labels shared by both must agree on their row/column identity —
        this is exactly the guarantee the offset labeling provides.
        """
        for label, info in other.rows.items():
            mine = self.rows.get(label)
            if mine is None:
                self.add_row(label, info.node, info.cokernel)
            elif mine != info:
                raise ValueError(f"row label clash at {label}: {mine} vs {info}")
        for label, cube in other.cols.items():
            mine = self.cols.get(label)
            if mine is None and cube in self.col_of_cube:
                raise ValueError(
                    f"cube {cube} already labeled {self.col_of_cube[cube]}, "
                    f"incoming label {label}"
                )
            if mine is not None and mine != cube:
                raise ValueError(f"column label clash at {label}")
        self.take_columns(other, other.cols)
        if _audit.enabled():
            _audit.audit_kcmatrix(self)

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
    new rows.  :attr:`churn` counts the rows the last build or patch
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
                    col = mat.ensure_col(kc, lambda: label)
                else:
                    occ[kc].add(key)
                    if key < (col & key_mask):
                        label = col_prefix | key
                        mat.relabel_col(col, label)
                        col = label
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
        """Drop each column of *cubes* left without occurrences and
        relabel the others to their current first occurrence."""
        mat = self.matrix
        occ = self._occ
        key_mask = self._key_mask
        for kc in cubes:
            keys = occ[kc]
            label = mat.col_of_cube[kc]
            if not keys:
                del occ[kc]
                mat.remove_col(label)
                continue
            low = min(keys)
            if low != label & key_mask:
                owner = self._owners.get(low >> 2 * INDEX_BITS, 0)
                mat.relabel_col(label, (owner << self._col_shift) | low)

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
           column is dropped or relabelled to its surviving first
           occurrence, so every column label is a live occurrence key;
        2. the kept rows whose index shifts move, and the columns of
           each moved row are rechecked right after that move — a
           column still on the label of a row that moved away would
           collide with one relabelled onto a row moving in;
        3. rows are added for the new kernels.
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
        self.churn = {
            "kc_rows_kept": kept,
            "kc_rows_added": mat.num_rows - after_removal,
            "kc_rows_removed": before - after_removal,
        }
