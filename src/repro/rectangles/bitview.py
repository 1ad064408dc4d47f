"""Bitset helpers and the exhaustive search's label-order tables.

The rectangle searches spend nearly all of their time intersecting row
sets, scanning candidate columns and re-valuing (row, col) cells.  The
matrix keys all of that by *global offset labels* (processor 2's first
kernel is row 200001); its store
(:class:`~repro.rectangles.kcmatrix.KCMatrix`) holds it in bitset form
instead:

- each column's row set and each row's column set are Python int
  bitmasks over stable slots — a row-set intersection is one big-int
  ``&``, a dominance test one equality, a cardinality one popcount;
- every occupied cell carries an *entry id* into a value table, and
  per-row ``len(cokernel) + 1`` / per-column ``len(kernel_cube)`` cost
  tables turn row marginals and rectangle gains into table lookups
  instead of ``value_fn`` calls;
- rows carry node ids, so the distinct-cube gain correction (two cells
  of one node naming the same original cube count once) only ever
  hashes cubes for nodes that actually contribute several rows to a
  rectangle — the common all-distinct case is pure table arithmetic.

Slot order is not label order, so every tie-break and every ordered
walk reads the labels: ping-pong ranks seeds and columns by label, and
the exhaustive search walks label-ordered column subsets through the
:class:`LabelTables` here (``KCMatrix.search_tables()``), derived from
the live slots once per matrix version and dropped by every mutation.
This module holds those tables and the bit helpers both searches use;
every rectangle leaving a search carries the original offset labels,
so the parallel algorithms' exchange/splice protocol is untouched.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul
from typing import TYPE_CHECKING, AbstractSet, Dict, Iterator, List

from repro.algebra.cube import Cube
from repro.rectangles.rectangle import default_value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rectangles.kcmatrix import KCMatrix

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


class LabelTables:
    """The exhaustive search's label-order tables over one version of a
    :class:`~repro.rectangles.kcmatrix.KCMatrix`'s slots.

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
    - ``dup_rows``: the matrix's duplicate-cube rows
      (:meth:`KCMatrix.dup_rows`).
    """

    __slots__ = (
        "anchors", "anchor_slots", "above", "suf_labels", "suf_sums",
        "clean", "dominated", "dup_rows",
    )

    def __init__(self, matrix: "KCMatrix") -> None:
        col_labels = matrix.col_labels
        col_rows = matrix.col_rows
        cells = matrix.row_cells
        anchors = sorted(matrix.col_pos)
        slots = [matrix.col_pos[lab] for lab in anchors]
        above = [0] * len(col_labels)
        mask = 0
        for slot in reversed(slots):
            above[slot] = mask
            mask |= 1 << slot
        values = matrix.value_table(default_value)
        suf_labels: List[List[int]] = []
        suf_sums: List[List[int]] = []
        label_of = col_labels.__getitem__
        for rcells in cells:
            order = sorted(rcells, key=label_of)
            suf_labels.append(list(map(label_of, order)))
            sums = list(accumulate([values[rcells[c]] for c in reversed(order)], initial=0))
            sums.reverse()
            suf_sums.append(sums)
        cubes = matrix.entry_cubes
        row_node = matrix.row_node
        live_rows = [slot for slot, lab in enumerate(matrix.row_labels) if lab is not None]
        node_cubes: Dict[int, List[Cube]] = {}
        for slot in live_rows:
            node_cubes.setdefault(row_node[slot], []).extend(
                map(cubes.__getitem__, cells[slot].values())
            )
        unclean = {nid for nid, cs in node_cubes.items() if len(set(cs)) < len(cs)}
        clean = 0
        for slot in live_rows:
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
        self.dup_rows: AbstractSet[int] = matrix.dup_rows()

