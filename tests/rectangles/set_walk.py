"""The recursive sparse-set walk, kept as the differential oracle.

Before the bitset compilation, the exhaustive search walked the tree of
column subsets recursively over the matrix's label-keyed sets, without
pruning.  This module keeps that walk, the unpruned search ("v1") that
:func:`repro.rectangles.search.best_rectangle_exhaustive` prunes: it
visits the whole (prime) column-subset tree in preorder, spends the
budget and charges the ``search_node`` meter once per node, and yields
every profitable ``(rectangle, gain)``, from nothing but the matrix's
label-keyed cells (``KCMatrix.cells()``, read once into sets per row
and column) and :func:`~repro.rectangles.rectangle.rectangle_gain`.  It is the only
definition of the exhaustive tree's stream; the pruned search must pick
its :func:`best_of` and never spend more nodes.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.rectangles.kcmatrix import KCMatrix
from repro.rectangles.rectangle import (
    Rectangle,
    ValueFn,
    default_value,
    rectangle_gain,
)


def _row_marginal(
    matrix: KCMatrix, entries: dict, row: int, cols: Sequence[int], value_fn: ValueFn
) -> int:
    info = matrix.rows[row]
    total = 0
    for c in cols:
        total += value_fn(info.node, entries[(row, c)])
    return total - len(info.cokernel) - 1


def _best_rows_for_cols(
    matrix: KCMatrix, entries: dict, cols: Sequence[int], candidate_rows: Set[int],
    value_fn: ValueFn,
) -> Tuple[int, ...]:
    """Keep the rows with positive marginal, in label order."""
    return tuple(
        r for r in sorted(candidate_rows)
        if _row_marginal(matrix, entries, r, cols, value_fn) > 0
    )


def set_walk(
    matrix: KCMatrix,
    value_fn: ValueFn = default_value,
    min_cols: int = 2,
    anchor_filter: Optional[Callable[[int], bool]] = None,
    budget=None,
    meter=None,
    prime_only: bool = True,
) -> Iterator[Tuple[Rectangle, int]]:
    """Yield (rectangle, gain) for every profitable column subset.

    *anchor_filter* keeps only the subtrees whose leftmost column
    satisfies it.  ``prime_only`` (default) includes a candidate column
    whose rows contain the current rows instead of branching on it, so
    only prime (column-maximal for their rows) rectangles are yielded;
    under the default value function that keeps the best rectangle.
    """
    entries = matrix.cells()
    by_row: dict = {r: set() for r in matrix.rows}
    by_col: dict = {c: set() for c in matrix.cols}
    for r, c in entries:
        by_row[r].add(c)
        by_col[c].add(r)

    def explore(
        cols: List[int], rows: Set[int], last_col: int
    ) -> Iterator[Tuple[Rectangle, int]]:
        if budget is not None:
            budget.spend()
        if meter is not None:
            meter.charge("search_node", 1)
        # Only columns co-occurring with the current rows can extend the
        # rectangle; scanning anything else would intersect to empty.
        in_cols = set(cols)
        candidates: Set[int] = set()
        for r in rows:
            for c2 in by_row[r]:
                if c2 > last_col and c2 not in in_cols:
                    candidates.add(c2)
        branch: List[int] = []
        forced: List[int] = []
        for c2 in sorted(candidates):
            rows2 = rows & by_col[c2]
            if prime_only and len(rows2) == len(rows):
                forced.append(c2)
            else:
                branch.append(c2)
        cols.extend(forced)
        if len(cols) >= min_cols:
            chosen = _best_rows_for_cols(matrix, entries, cols, rows, value_fn)
            if chosen:
                rect = Rectangle(rows=chosen, cols=tuple(cols))
                gain = rectangle_gain(matrix, rect, value_fn)
                if gain > 0:
                    yield rect, gain
        for c2 in branch:
            cols.append(c2)
            yield from explore(cols, rows & by_col[c2], c2)
            cols.pop()
        del cols[len(cols) - len(forced):]

    for c in sorted(matrix.cols):
        if anchor_filter is not None and not anchor_filter(c):
            continue
        rows0 = set(by_col[c])
        if rows0:
            yield from explore([c], rows0, c)


def best_of(
    stream: Iterable[Tuple[Rectangle, int]],
) -> Optional[Tuple[Rectangle, int]]:
    """A rectangle stream's maximum-gain rectangle, ties to smaller
    (cols, rows): the rectangle the exhaustive search must return."""
    best = None
    for rect, gain in stream:
        if (
            best is None
            or gain > best[1]
            or (gain == best[1]
                and (rect.cols, rect.rows) < (best[0].cols, best[0].rows))
        ):
            best = (rect, gain)
    return best


def set_walk_best(
    matrix: KCMatrix, **kw
) -> Optional[Tuple[Rectangle, int]]:
    """The set walk's best rectangle (see :func:`best_of`)."""
    return best_of(set_walk(matrix, **kw))
