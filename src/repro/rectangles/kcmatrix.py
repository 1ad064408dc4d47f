"""The sparse co-kernel cube matrix with global offset labeling.

Row and column indices are *labels*, not positions: the parallel
algorithms give processor *p* the index space ``p·OFFSET + k`` (the
paper's "offset which is a factor of the processor id" — processor 2's
first kernel is row 200001).  Labels therefore stay consistent across
replicas regardless of generation order, and sub-matrices exchanged
between processors splice together without renumbering.

The sequential and replicated greedy loops use a second scheme,
:class:`IncrementalKCMatrix`: labels derived from node names, kernel
positions and (replicated) node owners, so a matrix patched after each
extraction still sorts exactly like a fresh :func:`build_kc_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.algebra.cube import Cube, cube_union
from repro.algebra.kernels import Kernel, kernels
from repro.algebra.sop import Sop
from repro.verify import audit as _audit

# The paper labels processor p's first kernel p·100000 + 1.
LABEL_OFFSET = 100_000

CubeRef = Tuple[str, Cube]  # (node name, original SOP cube)


@dataclass(frozen=True)
class RowInfo:
    """A row: one (node, co-kernel) pair."""

    node: str
    cokernel: Cube


@dataclass
class KCMatrix:
    """Sparse KC matrix keyed by integer row/column labels.

    ``entries[(r, c)]`` is the original SOP cube of ``rows[r].node``
    obtained as ``rows[r].cokernel ∪ cols[c]``.  ``by_row``/``by_col``
    are adjacency indexes kept consistent by :meth:`add_entry` /
    :meth:`remove_row`.
    """

    rows: Dict[int, RowInfo] = field(default_factory=dict)
    cols: Dict[int, Cube] = field(default_factory=dict)
    col_of_cube: Dict[Cube, int] = field(default_factory=dict)
    entries: Dict[Tuple[int, int], Cube] = field(default_factory=dict)
    by_row: Dict[int, Set[int]] = field(default_factory=dict)
    by_col: Dict[int, Set[int]] = field(default_factory=dict)
    node_rows: Dict[str, Set[int]] = field(default_factory=dict)
    _version: int = field(default=0, repr=False, compare=False)
    _bitview: Optional[object] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _touch(self) -> None:
        """Record a structural mutation; drops the cached bitset view."""
        self._version += 1
        self._bitview = None

    def add_row(self, label: int, node: str, cokernel: Cube) -> None:
        if label in self.rows:
            raise ValueError(f"duplicate row label {label}")
        self.rows[label] = RowInfo(node, cokernel)
        self.by_row[label] = set()
        self.node_rows.setdefault(node, set()).add(label)
        if _audit.enabled():
            _audit.audit_row_added(self, label)
        self._touch()

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
        self.by_col[label] = set()
        if _audit.enabled():
            _audit.audit_col_added(self, label)
        self._touch()
        return label

    def add_entry(self, row: int, col: int) -> None:
        info = self.rows[row]
        self.entries[(row, col)] = cube_union(info.cokernel, self.cols[col])
        self.by_row[row].add(col)
        self.by_col[col].add(row)
        if _audit.enabled():
            _audit.audit_entry_added(self, row, col)
        self._touch()

    def remove_row(self, label: int) -> None:
        for col in self.by_row.pop(label, set()):
            self.by_col[col].discard(label)
            self.entries.pop((label, col), None)
        info = self.rows.pop(label, None)
        if info is not None:
            node_set = self.node_rows.get(info.node)
            if node_set is not None:
                node_set.discard(label)
                if not node_set:
                    del self.node_rows[info.node]
        if _audit.enabled():
            _audit.audit_row_removed(self, label)
        self._touch()

    def remove_col(self, label: int) -> None:
        cube = self.cols.get(label)
        for row in self.by_col.pop(label, set()):
            self.by_row[row].discard(label)
            self.entries.pop((row, label), None)
        if cube is not None:
            self.col_of_cube.pop(cube, None)
        self.cols.pop(label, None)
        if _audit.enabled():
            _audit.audit_col_removed(self, label)
        self._touch()

    def relabel_col(self, old: int, new: int) -> None:
        """Move column *old* — its cube, entries and adjacency — to *new*.

        O(column degree).  Used by :class:`IncrementalKCMatrix` when a
        column's first occurrence moves and its order-preserving label
        must move with it.
        """
        if new in self.cols:
            raise ValueError(f"duplicate column label {new}")
        cube = self.cols.pop(old)
        self.cols[new] = cube
        self.col_of_cube[cube] = new
        rows = self.by_col.pop(old)
        self.by_col[new] = rows
        entries = self.entries
        by_row = self.by_row
        for row in rows:
            entries[(row, new)] = entries.pop((row, old))
            cols = by_row[row]
            cols.discard(old)
            cols.add(new)
        if _audit.enabled():
            _audit.audit_col_relabeled(self, old, new)
        self._touch()

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
        return len(self.entries)

    def sparsity(self) -> float:
        """Fraction of occupied cells — the α/γ of the paper's Eq. 3."""
        cells = self.num_rows * self.num_cols
        return self.num_entries / cells if cells else 0.0

    def entry_cube(self, row: int, col: int) -> Cube:
        return self.entries[(row, col)]

    def cube_ref(self, row: int, col: int) -> CubeRef:
        return (self.rows[row].node, self.entries[(row, col)])

    def rows_of_node(self, node: str) -> List[int]:
        """Row labels of *node*, via the maintained ``node_rows`` index."""
        return sorted(self.node_rows.get(node, ()))

    def bitview(self):
        """The cached dense bitset view (see :mod:`repro.rectangles.bitview`).

        Compiled lazily and dropped by every structural mutation, so the
        greedy extraction loops rebuild it exactly once per matrix
        version no matter how many searches share the matrix.
        """
        view = self._bitview
        if view is None:
            from repro.rectangles.bitview import BitKCView

            view = BitKCView(self)
            if _audit.enabled():
                _audit.audit_bitview(self, view)
            self._bitview = view
        return view

    def submatrix_columns(self, col_labels: Iterable[int]) -> "KCMatrix":
        """Restriction to a set of columns (all rows with entries kept).

        Walks the ``by_col`` adjacency of the kept columns only, so the
        cost is proportional to the entries *kept*, not the total entry
        count — this sits inside the L-shaped B_ij exchange, which calls
        it once per processor pair.
        """
        out = KCMatrix()
        for c in sorted(set(col_labels)):
            cube = self.cols.get(c)
            if cube is None:
                continue
            out.cols[c] = cube
            out.col_of_cube[cube] = c
            out.by_col[c] = set()
            for r in sorted(self.by_col[c]):
                if r not in out.rows:
                    info = self.rows[r]
                    out.add_row(r, info.node, info.cokernel)
                out.entries[(r, c)] = self.entries[(r, c)]
                out.by_row[r].add(c)
                out.by_col[c].add(r)
        if _audit.enabled():
            _audit.audit_kcmatrix(out)
        out._touch()
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
            if mine is None:
                if cube in self.col_of_cube:
                    raise ValueError(
                        f"cube {cube} already labeled {self.col_of_cube[cube]}, "
                        f"incoming label {label}"
                    )
                self.cols[label] = cube
                self.col_of_cube[cube] = label
                self.by_col[label] = set()
                self._touch()
            elif mine != cube:
                raise ValueError(f"column label clash at {label}")
        for (r, c) in other.entries.keys():
            self.add_entry(r, c)
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
            for kc in kern.expression:
                col = mat.ensure_col(kc, col_alloc)
                mat.add_entry(row, col)
                if meter is not None:
                    meter.charge("kc_entry", 1)
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
      relabelled (:meth:`KCMatrix.relabel_col`, O(column degree)).

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
    kernels behind the current rows.  :meth:`replace_nodes` removes the
    rows of the given nodes and adds rows for their new kernels.  A name
    longer than the encoding width triggers one rebuild at a wider
    width.  The dense bitset view is still compiled once per matrix
    version by the searches.
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

    def _name_key(self, node: str) -> int:
        got = self._name_keys.get(node)
        if got is None:
            raw = _utf8(node)
            pad = 8 * (self._width - len(raw)) + 16
            got = (int.from_bytes(raw, "big") << pad) | len(raw)
            self._name_keys[node] = got
        return got

    def _add_node(self, node: str, ks: List[Kernel]) -> None:
        if len(ks) >= _INDEX_LIMIT:
            raise OverflowError(f"node {node!r} has too many kernels to label")
        self.kernels[node] = ks
        mat = self.matrix
        col_of_cube = mat.col_of_cube
        occ = self._occ
        key_mask = self._key_mask
        name_key = self._name_key(node)
        owner = 0
        if self._owner is not None:
            owner = self._owners[name_key] = self._owner[node]
        row_prefix = owner << self._row_shift
        col_prefix = owner << self._col_shift
        base = name_key << INDEX_BITS
        for kidx, kern in enumerate(ks):
            rk = base | kidx
            row = row_prefix | rk
            mat.add_row(row, node, kern.cokernel)
            if len(kern.expression) >= _INDEX_LIMIT:
                raise OverflowError(f"node {node!r} has a kernel too large to label")
            rkey = rk << INDEX_BITS
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
                mat.add_entry(row, col)

    def _remove_node(self, node: str, touched: Set[Cube]) -> None:
        ks = self.kernels.pop(node, None)
        if ks is None:
            return
        mat = self.matrix
        occ = self._occ
        name_key = self._name_key(node)
        row_prefix = self._owners.get(name_key, 0) << self._row_shift
        base = name_key << INDEX_BITS
        for kidx, kern in enumerate(ks):
            rk = base | kidx
            mat.remove_row(row_prefix | rk)
            rkey = rk << INDEX_BITS
            for idx, kc in enumerate(kern.expression):
                occ[kc].discard(rkey | idx)
                touched.add(kc)

    def replace_nodes(self, node_kernels: Dict[str, List[Kernel]]) -> None:
        """Replace the rows of the given nodes (changed or new) by rows
        for their given kernels.

        Removals settle first — every touched column is dropped or
        relabelled to its surviving first occurrence — so the labels the
        additions meet are all live occurrence keys and never collide
        with the keys of the re-added rows.
        """
        names = sorted(node_kernels)
        if any(len(_utf8(n)) > self._width for n in names):
            self._build({**self.kernels, **node_kernels}, 2 * self._width)
            return
        mat = self.matrix
        occ = self._occ
        touched: Set[Cube] = set()
        for node in names:
            self._remove_node(node, touched)
        key_mask = self._key_mask
        for kc in touched:
            keys = occ[kc]
            label = mat.col_of_cube[kc]
            if not keys:
                del occ[kc]
                mat.remove_col(label)
            elif (label & key_mask) not in keys:
                # The column's first occurrence was removed.
                low = min(keys)
                owner = self._owners.get(low >> 2 * INDEX_BITS, 0)
                mat.relabel_col(label, (owner << self._col_shift) | low)
        for node in names:
            self._add_node(node, node_kernels[node])
