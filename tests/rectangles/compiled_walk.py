"""The sorted compilation and the position-space exhaustive walk, kept
as the differential oracle.

Before the exhaustive search walked the KC matrix's live bitset slots,
it ran on a sorted compilation of them (:class:`BitKCView`): dense positions
``0..R-1`` / ``0..C-1`` in sorted-label order, so position order *is*
label order, and the column-subset walk could take every tie-break and
every "only extend rightwards" filter from positions (``neg_above``).
This module keeps that compilation and that walk verbatim, less the
``REPRO_CHECK=1`` replay audit, so
:func:`repro.rectangles.search._best_rectangle_bit_v2` can be compared
with it on any matrix: the same rectangle, stats, budget spend and
``search_node`` charges, and (with anchor reuse on) the same anchor
records.  :mod:`tests.rectangles.dense_pingpong` subclasses the
compilation for the dense ping-pong walk.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.algebra.cube import Cube
from repro.rectangles.kcmatrix import KCMatrix
from repro.rectangles.rectangle import Rectangle, ValueFn, default_value
from repro.rectangles.search import SearchBudget


def _dup_slots(cells: List[Dict[int, int]], cubes: List, slots) -> Set[int]:
    """The *slots* whose cells repeat an original cube within the row."""
    out: Set[int] = set()
    for slot in slots:
        rcells = cells[slot]
        if len(rcells) > 1 and len({cubes[eid] for eid in rcells.values()}) < len(rcells):
            out.add(slot)
    return out


class BitKCView:
    """Sorted dense-position compilation of one KCMatrix snapshot.

    The compile walks the matrix's slots in label order; cells keep the
    matrix's entry ids, so ``entry_cubes`` is the matrix's own list,
    valid until its next mutation.
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
        row_labels = sorted(matrix.rows)
        col_labels = sorted(matrix.col_pos)
        self.row_labels: List[int] = row_labels
        self.col_labels: List[int] = col_labels
        row_pos = {lab: i for i, lab in enumerate(row_labels)}
        col_pos = {lab: i for i, lab in enumerate(col_labels)}
        self.row_pos: Dict[int, int] = row_pos
        self.col_pos: Dict[int, int] = col_pos
        row_slots = [matrix.rows[lab].slot for lab in row_labels]
        col_slots = [matrix.col_pos[lab] for lab in col_labels]
        self.col_cost: List[int] = [matrix.col_cost[s] for s in col_slots]
        self.row_cost: List[int] = [matrix.row_cost[s] for s in row_slots]
        # Node ids are the matrix's: the gain correction only compares
        # cells within one node.
        self.row_node: List[int] = [matrix.row_node[s] for s in row_slots]
        self.node_names: List[str] = matrix.node_names

        # Column slot → position (free slots are never read).
        cpos_of = [0] * len(matrix.col_labels)
        for cpos, cslot in enumerate(col_slots):
            cpos_of[cslot] = cpos
        col_rows = [0] * len(col_labels)
        row_cols: List[int] = []
        cells: List[Dict[int, int]] = []
        for rpos, rslot in enumerate(row_slots):
            bit = 1 << rpos
            rcells = {}
            mask = 0
            for cslot, eid in matrix.row_cells[rslot].items():
                cpos = cpos_of[cslot]
                rcells[cpos] = eid
                mask |= 1 << cpos
                col_rows[cpos] |= bit
            cells.append(rcells)
            row_cols.append(mask)
        self.row_cols: List[int] = row_cols
        self.col_rows: List[int] = col_rows
        self.cells: List[Dict[int, int]] = cells
        self.entry_cubes: List[Optional[Cube]] = matrix.entry_cubes
        self.num_entries: int = matrix.num_entries
        self._overlap_rows: List[int] = [row_pos[lab] for lab in matrix.overlap_rows]
        self._default_values: Optional[List[int]] = (
            matrix._values[:] if matrix.value_source is default_value else None
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

    def value_table(self, value_fn: ValueFn = default_value) -> List[int]:
        """Per-entry-id values under *value_fn*.

        The table for the pure default value function is computed (or
        copied from the matrix) once and cached with the view; any
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


def compiled_walk(
    matrix: KCMatrix,
    min_cols: int,
    anchor_filter: Optional[Callable[[int], bool]],
    budget: Optional[SearchBudget],
    meter,
    anchor_range: Optional[Tuple[int, int]] = None,
    entry: int = 0,
    reuse: bool = True,
) -> Tuple[Optional[Tuple[Rectangle, int]], Dict[str, int]]:
    """The exhaustive search as it ran on a fresh :class:`BitKCView`.

    The arguments and the result are those of
    :func:`repro.rectangles.search._best_rectangle_bit_v2`; with
    *reuse* it reads and rewrites the matrix's anchor records the same
    way.  Every walk compiles the matrix afresh.
    """
    view = BitKCView(matrix)
    values = view.value_table(default_value)
    row_cols = view.row_cols
    col_rows = view.col_rows
    cells = view.cells
    row_cost = view.row_cost
    col_cost = view.col_cost
    row_node = view.row_node
    entry_cubes = view.entry_cubes
    row_labels = view.row_labels
    col_labels = view.col_labels
    neg_above = view.neg_above()
    dup_rows = view.dup_rows()
    suf_cols, suf_sums = view.suffix_potentials()
    dom_mask = view.dominated_anchors()
    records = matrix.anchor_records(min_cols) if reuse else {}

    spend = budget.spend if budget is not None else None
    charge = meter.charge if meter is not None else None

    n_visits = 0
    n_pruned = 0
    n_domskips = 0
    n_forced = 0
    n_evaluated = 0
    n_replayed = 0
    owed = 0  # replayed nodes not yet spent and charged
    found = entry > 0
    best_gain = entry
    best_tuple: Tuple[Tuple[int, ...], Tuple[int, ...]] = ((), ())
    best: Optional[Tuple[Rectangle, int]] = None
    cut = entry or 1  # a rectangle must reach this gain to matter

    if anchor_range is None:
        first, stop = 0, len(col_labels)
    else:
        first = bisect_left(col_labels, anchor_range[0])
        stop = bisect_right(col_labels, anchor_range[1])
    stack: List[tuple] = []
    push = stack.append
    pop = stack.pop
    for apos in range(first, stop):
        label = col_labels[apos]
        if anchor_filter is not None and not anchor_filter(label):
            continue
        rows0 = col_rows[apos]
        if not rows0:
            continue
        if (dom_mask >> apos) & 1:
            n_domskips += 1
            continue
        at = cut if found else 0
        rec = records.get(label)
        if (
            rec is not None
            and rec[0] == at
            and (budget is None or budget.used + owed + rec[1] <= budget.max_nodes)
        ):
            owed += rec[1]
            n_visits += rec[1]
            n_pruned += rec[2]
            n_forced += rec[3]
            n_evaluated += rec[4]
            n_replayed += 1
            if rec[5] is not None:
                best = rec[5]
                found = True
                best_gain = cut = best[1]
            continue
        if owed:
            if spend is not None:
                spend(owed)
            if charge is not None:
                charge("search_node", owed)
            owed = 0
        v0 = n_visits
        p0 = n_pruned
        f0 = n_forced
        e0 = n_evaluated
        push(([apos], 1 << apos, rows0, apos, None, apos, col_cost[apos]))
        while stack:
            cols, cols_mask, rows_mask, last_pos, psums, add_cpos, ccost = pop()
            if spend is not None:
                spend()
            if charge is not None:
                charge("search_node", 1)
            n_visits += 1
            sums: Dict[int, int] = {}
            cand_all = 0
            ub = -ccost
            mm = rows_mask
            if psums is None:
                while mm:
                    lo = mm & -mm
                    rpos = lo.bit_length() - 1
                    mm ^= lo
                    s = values[cells[rpos][add_cpos]]
                    sums[rpos] = s
                    cand_all |= row_cols[rpos]
                    t = s - row_cost[rpos] + suf_sums[rpos][
                        bisect_right(suf_cols[rpos], last_pos)
                    ]
                    if t > 0:
                        ub += t
            else:
                while mm:
                    lo = mm & -mm
                    rpos = lo.bit_length() - 1
                    mm ^= lo
                    s = psums[rpos] + values[cells[rpos][add_cpos]]
                    sums[rpos] = s
                    cand_all |= row_cols[rpos]
                    t = s - row_cost[rpos] + suf_sums[rpos][
                        bisect_right(suf_cols[rpos], last_pos)
                    ]
                    if t > 0:
                        ub += t
            if ub < cut:
                n_pruned += 1
                continue
            cand_mask = cand_all & neg_above[last_pos] & ~cols_mask
            if len(sums) == 1:
                # Single surviving row: all candidates are forced (v1's fast
                # path); the node has no branch children.
                (rpos, s), = sums.items()
                rcells = cells[rpos]
                m = cand_mask
                while m:
                    low = m & -m
                    cpos = low.bit_length() - 1
                    m ^= low
                    cols.append(cpos)
                    s += values[rcells[cpos]]
                if len(cols) >= min_cols:
                    if dup_rows and rpos in dup_rows:
                        seen: Set = set()
                        s = 0
                        for cpos in cols:
                            eid = rcells[cpos]
                            cube = entry_cubes[eid]
                            if cube not in seen:
                                seen.add(cube)
                                s += values[eid]
                    gain = s - row_cost[rpos]
                    if gain > 0:
                        for cpos in cols:
                            gain -= col_cost[cpos]
                        if gain > 0:
                            n_evaluated += 1
                            key = (tuple(cols), (rpos,))
                            if (
                                not found
                                or gain > best_gain
                                or (gain == best_gain and key < best_tuple)
                            ):
                                found = True
                                best_gain = gain
                                best_tuple = key
                                cut = gain
                continue
            branch: List[Tuple[int, int]] = []
            rows_it = iter(sums)
            common = row_cols[next(rows_it)]
            for rpos in rows_it:
                common &= row_cols[rpos]
            forced_mask = cand_mask & common
            if forced_mask:
                forced: List[int] = []
                m = forced_mask
                while m:
                    low = m & -m
                    cpos = low.bit_length() - 1
                    forced.append(cpos)
                    m ^= low
                n_forced += len(forced)
                cols.extend(forced)
                cols_mask |= forced_mask
                for rpos in sums:
                    rcells = cells[rpos]
                    s = sums[rpos]
                    for cpos in forced:
                        s += values[rcells[cpos]]
                    sums[rpos] = s
                for cpos in forced:
                    ccost += col_cost[cpos]
            m = cand_mask & ~common
            while m:
                low = m & -m
                cpos = low.bit_length() - 1
                m ^= low
                branch.append((cpos, rows_mask & col_rows[cpos]))
            if len(cols) >= min_cols:
                chosen: List[int] = []
                gain = 0
                for rpos, s in sums.items():
                    marg = s - row_cost[rpos]
                    if marg > 0:
                        chosen.append(rpos)
                        gain += marg
                if chosen:
                    for cpos in cols:
                        gain -= col_cost[cpos]
                    if len(chosen) > 1 or dup_rows:
                        counts: Dict[int, int] = {}
                        multi = False
                        for rpos in chosen:
                            nid = row_node[rpos]
                            if nid in counts:
                                counts[nid] += 1
                                multi = True
                            else:
                                counts[nid] = 1
                        need: Set[int] = set()
                        if multi:
                            need = {n for n, k in counts.items() if k > 1}
                        if dup_rows:
                            for rpos in chosen:
                                if rpos in dup_rows:
                                    need.add(row_node[rpos])
                        if need:
                            for nid in need:
                                seen = set()
                                for rpos in chosen:
                                    if row_node[rpos] != nid:
                                        continue
                                    rcells = cells[rpos]
                                    for cpos in cols:
                                        eid = rcells[cpos]
                                        cube = entry_cubes[eid]
                                        if cube in seen:
                                            gain -= values[eid]
                                        else:
                                            seen.add(cube)
                    if gain > 0:
                        n_evaluated += 1
                        key = (tuple(cols), tuple(chosen))
                        if (
                            not found
                            or gain > best_gain
                            or (gain == best_gain and key < best_tuple)
                        ):
                            found = True
                            best_gain = gain
                            best_tuple = key
                            cut = gain
            for cpos, rows2 in reversed(branch):
                push((
                    cols + [cpos], cols_mask | (1 << cpos), rows2, cpos,
                    sums, cpos, ccost + col_cost[cpos],
                ))
        won = None
        if (cut if found else 0) != at:
            won = best = (
                Rectangle(
                    rows=tuple([row_labels[r] for r in best_tuple[1]]),
                    cols=tuple([col_labels[c] for c in best_tuple[0]]),
                ),
                best_gain,
            )
        records[label] = (
            at, n_visits - v0, n_pruned - p0, n_forced - f0,
            n_evaluated - e0, won,
        )
    if owed:
        if spend is not None:
            spend(owed)
        if charge is not None:
            charge("search_node", owed)

    return best, {
        "nodes": n_visits,
        "pruned": n_pruned,
        "dominance_skips": n_domskips,
        "forced": n_forced,
        "evaluated": n_evaluated,
        "replayed": n_replayed,
    }
