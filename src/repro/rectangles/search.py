"""Exhaustive column-anchored rectangle search.

This is the search the replicated-circuit algorithm (paper Section 3)
parallelizes: a top-down traversal of the tree of column subsets, ordered
by leftmost column, generating every rectangle and its value (Figure 1).
Processor *p* owns the anchors in its column stripe, so restricting the
anchor set decomposes the tree exactly as the paper describes.

For a fixed column set the optimal row set decomposes row-by-row: a row's
marginal contribution is ``Σ_j value(cube_ij) − |cokernel_i| − 1`` and
rows are kept iff positive.  (When several rows of one node cover the
same original cube the reported gain is corrected by exact distinct
counting afterwards.)

The one search, :func:`best_rectangle_exhaustive`, is the "v2" walk:
it visits that tree in the unpruned walk's preorder ("v1") but cuts
subtrees by branch-and-bound and column dominance, and returns exactly
the rectangle v1 would have picked.  v1 itself survives only as the
differential oracle ``tests/rectangles/set_walk.py``.  A greedy loop
searches a matrix each extraction barely changes, so the matrix keeps a
record per anchor (leftmost column), and the next search replays every
anchor whose subtree nothing has changed since; answers, budget spend
and meter charges stay those of a walk from scratch.

The traversal walks the matrix's bitset store directly: row sets are
int bitmasks over row slots, candidate scans are bit iterations, the
column dominance test is one mask equality, and cell values are table
lookups.  Slots are not in label order, so every order the walk
follows — of anchors and of branch children, and with them the
tie-breaks — is read from labels, through the label-order tables the
matrix derives once per version (``KCMatrix.search_tables()``).

Enumeration is exponential in the worst case; :class:`SearchBudget`
bounds the number of visited tree nodes and raises
:class:`BudgetExceeded` — this is how the reproduction models the paper's
"did not terminate after 10000 seconds" rows for spla/ex1010.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.obs.tracer import active_tracer, add_counters
from repro.rectangles.kcmatrix import KCMatrix
from repro.rectangles.memo import GLOBAL_SEARCH_STATS
from repro.rectangles.rectangle import Rectangle, default_value
from repro.verify import audit as _audit


class BudgetExceeded(Exception):
    """Raised when the rectangle search exceeds its node budget."""


@dataclass
class SearchBudget:
    """A cap on search-tree nodes, shared across one extraction run."""

    max_nodes: int
    used: int = 0

    def spend(self, n: int = 1) -> None:
        """Consume *n* units; raise :class:`BudgetExceeded` past the cap."""
        self.used += n
        if self.used > self.max_nodes:
            raise BudgetExceeded(
                f"rectangle search exceeded budget of {self.max_nodes} nodes"
            )


def _best_rectangle_bit_v2(
    matrix: KCMatrix,
    min_cols: int,
    anchor_filter: Optional[Callable[[int], bool]],
    budget: Optional[SearchBudget],
    meter,
    anchor_range: Optional[Tuple[int, int]] = None,
    entry: int = 0,
    reuse: bool = True,
) -> Tuple[Optional[Tuple[Rectangle, int]], Dict[str, int]]:
    """v2: v1's traversal plus branch-and-bound + dominance.

    Walks the identical column-subset tree as v1 (prime closure, same
    frame layout, same spend-at-entry accounting) but cuts two kinds of
    subtree:

    - **bound cut** — at node entry an admissible upper bound on any
      descendant's corrected gain is computed in the same row loop that
      builds the marginal sums: each surviving row contributes
      ``max(0, Σ path values − row_cost + suffix_potential(> last))``
      and the path's column costs are subtracted.  Future column costs
      and distinct-cube corrections only lower real gains, so pruning
      whenever the bound is below the incumbent is exact (the cut is
      strict, and the pinned node spends follow that rule);
    - **dominance skip** — anchors in the tables'
      :attr:`~repro.rectangles.bitview.LabelTables.dominated` mask are
      never walked: the dominating earlier column's subtree
      contains a rectangle with at least the gain and a lexicographically
      smaller column tuple, so the incumbent (value *and* tie-winner) is
      preserved.

    Anchors are walked in label order, each subtree to the end before
    the next, and only those in *anchor_range* (inclusive column label
    bounds) that pass *anchor_filter*.  Within a subtree, branch
    children are visited in label order (the "only extend rightwards"
    filter keeps the columns labelled above the node's, read from the
    tables' ``above`` masks), so the walk is a preorder of the tree
    ordered by labels.  Each rectangle's tie-break key — its column
    labels in visit order, then its sorted row labels — is therefore
    larger than every earlier one's: it either extends an earlier
    node's columns or first differs from them at a branch column with a
    larger label.  A tie between equal gains goes to the rectangle
    visited first, so a later one replaces the incumbent only with a
    strictly greater gain; no key is built, and forced columns may join
    in slot order.

    **Anchor records.**  An anchor's subtree reads the rows of its
    column, those rows' cells and costs, the costs and label order of
    their columns, and the incumbent at entry — and of the incumbent
    only ``cut if found else 0``: every rectangle of the subtree starts
    with the anchor, so one from an earlier anchor never loses a tie to
    it.  With *reuse*, the matrix keeps per anchor label
    (:meth:`KCMatrix.anchor_records`) the tuple ``(entry, nodes,
    pruned, forced, evaluated, won)`` of its last walk, *won* being the
    ``(Rectangle, gain)`` in labels it raised the incumbent to, or
    ``None``.  A record the mutators have not marked since is replayed
    when the anchor is not dominated, its entry incumbent is the
    recorded one and the budget covers its nodes: its counters are
    added, the incumbent is set from *won*, and its nodes are spent and
    charged with those of the replays next to it, before the next
    walk.  Otherwise the anchor is walked and its record rewritten, so
    a budget exhaustion raises at the same node as a search from
    scratch.  Under ``REPRO_CHECK=1`` every replayed anchor is also
    re-walked (``reuse=False``, starting from the recorded *entry*) and
    must match its record.

    Returns the best rectangle (``None`` when no rectangle beats
    *entry*) plus a stats dict.
    """
    tables = matrix.search_tables()
    values = matrix.value_table(default_value)
    row_cols = matrix.row_cols
    col_rows = matrix.col_rows
    cells = matrix.row_cells
    row_cost = matrix.row_cost
    col_cost = matrix.col_cost
    row_node = matrix.row_node
    entry_cubes = matrix.entry_cubes
    row_labels = matrix.row_labels
    col_labels = matrix.col_labels
    anchors = tables.anchors
    anchor_slots = tables.anchor_slots
    above = tables.above
    dup_rows = tables.dup_rows
    suf_labels = tables.suf_labels
    suf_sums = tables.suf_sums
    dom_mask = tables.dominated
    records = matrix.anchor_records(min_cols) if reuse else {}
    auditing = reuse and _audit.enabled()

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
    best_cols: List[int] = []  # the incumbent's slots
    best_rows: List[int] = []
    best: Optional[Tuple[Rectangle, int]] = None
    cut = entry or 1  # a rectangle must reach this gain to matter

    if anchor_range is None:
        first, stop = 0, len(anchors)
    else:
        first = bisect_left(anchors, anchor_range[0])
        stop = bisect_right(anchors, anchor_range[1])
    stack: List[tuple] = []
    push = stack.append
    pop = stack.pop
    for i in range(first, stop):
        label = anchors[i]
        if anchor_filter is not None and not anchor_filter(label):
            continue
        apos = anchor_slots[i]
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
            if auditing:
                fresh, stats = _best_rectangle_bit_v2(
                    matrix, min_cols, None, None, None, (label, label), at, False
                )
                _audit.audit_anchor_replay(label, rec, (
                    at, stats["nodes"], stats["pruned"], stats["forced"],
                    stats["evaluated"], fresh,
                ))
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
        # A frame: column slots in visit order, their mask, the rows
        # left, the label of the column the node adds, the parent's row
        # sums, that column's slot, and the columns' total cost.
        push(([apos], 1 << apos, rows0, label, None, apos, col_cost[apos]))
        while stack:
            cols, cols_mask, rows_mask, last_label, psums, add_cpos, ccost = pop()
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
                        bisect_right(suf_labels[rpos], last_label)
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
                        bisect_right(suf_labels[rpos], last_label)
                    ]
                    if t > 0:
                        ub += t
            if ub < cut:
                n_pruned += 1
                continue
            cand_mask = cand_all & above[add_cpos] & ~cols_mask
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
                            if not found or gain > best_gain:
                                found = True
                                best_gain = cut = gain
                                best_cols = cols
                                best_rows = [rpos]
                continue
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
            branch: List[Tuple[int, int]] = []
            m = cand_mask & ~common
            while m:
                low = m & -m
                cpos = low.bit_length() - 1
                m ^= low
                branch.append((col_labels[cpos], cpos))
            if len(cols) >= min_cols:
                chosen: List[int] = []
                gain = 0
                for rpos, s in sums.items():
                    marg = s - row_cost[rpos]
                    if marg > 0:
                        chosen.append(rpos)
                        gain += marg
                if chosen:
                    gain -= ccost
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
                        if not found or gain > best_gain:
                            found = True
                            best_gain = cut = gain
                            best_cols = cols
                            best_rows = chosen
            branch.sort()
            for clab, cpos in reversed(branch):
                push((
                    cols + [cpos], cols_mask | (1 << cpos), rows_mask & col_rows[cpos],
                    clab, sums, cpos, ccost + col_cost[cpos],
                ))
        won = None
        if (cut if found else 0) != at:
            won = best = (
                Rectangle(
                    rows=tuple(map(row_labels.__getitem__, best_rows)),
                    cols=tuple(map(col_labels.__getitem__, best_cols)),
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


def best_rectangle_exhaustive(
    matrix: KCMatrix,
    min_cols: int = 2,
    anchor_filter: Optional[Callable[[int], bool]] = None,
    budget: Optional[SearchBudget] = None,
    meter=None,
    anchor_range: Optional[Tuple[int, int]] = None,
) -> Optional[Tuple[Rectangle, int]]:
    """Maximum-gain rectangle (deterministic ties).

    Runs the v2 pruned search — branch-and-bound with an admissible
    remaining-gain bound and dominance-based anchor skipping — which
    returns the exact rectangle (value *and* tie-break) the unpruned
    column-subset walk would, highest gain with ties to the smallest
    ``(cols, rows)``, while visiting a fraction of the tree.

    Only anchors (leftmost columns) whose label lies in *anchor_range*
    (inclusive bounds, e.g. from :func:`column_stripe_bounds`) and
    passes *anchor_filter* are searched.  Anchors whose subtree the
    matrix has not changed since the last search replay their recorded
    walk (see :func:`_best_rectangle_bit_v2`); the answer, the budget
    spend and the meter charges are those of a search from scratch.
    """
    best, stats = _best_rectangle_bit_v2(
        matrix, min_cols, anchor_filter, budget, meter, anchor_range
    )
    GLOBAL_SEARCH_STATS.record(
        stats["pruned"], stats["dominance_skips"], stats["replayed"]
    )
    if active_tracer() is not None:
        add_counters(
            search_node_visit=stats["nodes"],
            dominance_prune=stats["forced"],
            rect_yield=stats["evaluated"],
            rect_search_pruned_subtrees=stats["pruned"],
            rect_search_dominance_skips=stats["dominance_skips"],
            rect_search_anchors_replayed=stats["replayed"],
        )
    return best


def _stripe_slices(n: int, nprocs: int) -> List[Tuple[int, int]]:
    """Each stripe's ``[lo, hi)`` range of ranks among *n* columns."""
    return [((p * n) // nprocs, ((p + 1) * n) // nprocs) for p in range(nprocs)]


def column_stripes(matrix: KCMatrix, nprocs: int) -> List[Set[int]]:
    """Contiguous column stripes for the Figure 1 decomposition.

    Processor 1 gets rectangles whose leftmost column lies in the first
    ``1/n`` of the (label-sorted) columns, processor 2 the second, etc.
    """
    labels = sorted(matrix.cols)
    return [set(labels[lo:hi]) for lo, hi in _stripe_slices(len(labels), nprocs)]


def column_stripe_bounds(
    matrix: KCMatrix, nprocs: int
) -> List[Optional[Tuple[int, int]]]:
    """The :func:`column_stripes` as ``(first, last)`` label bounds
    (``None`` for an empty stripe): the search's *anchor_range*."""
    labels = sorted(matrix.cols)
    return [
        (labels[lo], labels[hi - 1]) if hi > lo else None
        for lo, hi in _stripe_slices(len(labels), nprocs)
    ]
