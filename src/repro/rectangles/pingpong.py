"""SIS-style ping-pong rectangle heuristic.

``gkx`` in SIS does not enumerate all rectangles: it grows one greedily by
alternating between the best column set for the current rows and the best
row set for the current columns (coordinate ascent on the gain).  Because
a column's contribution given fixed rows — ``Σ_i value(cube_ic) − |kc_c|``
— and a row's contribution given fixed columns are independent per
column/row, each half-step is exact, the gain is monotone non-decreasing
and the iteration terminates at a local optimum.

The sequential baseline of this reproduction ("SIS") uses this searcher;
it is fast enough for the largest circuits, unlike the exhaustive search
of :mod:`repro.rectangles.search` which the replicated parallel algorithm
uses (and which DNFs on them, as in the paper).

The ascents run over the matrix's live bitset index
(``KCMatrix.bitview()``, patched by every mutation rather than
recompiled per search): candidate sets are single ``&`` operations and
cell values are table lookups.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.tracer import active_tracer, add_counters
from repro.rectangles.bitview import popcount, seed_potentials
from repro.rectangles.kcmatrix import KCMatrix
from repro.rectangles.rectangle import (
    Rectangle,
    ValueFn,
    default_value,
)


def _ascents_bit(
    matrix, value_fn, min_cols, max_seeds, max_rounds, meter
) -> Iterator[Tuple[Rectangle, int]]:
    """Yield the (rectangle, gain) each seed's coordinate ascent reaches.

    Seeds are ranked by potential: a row is promising when its columns
    are shared by other rows (that sharing is what a rectangle
    monetizes), weighted by the value sitting in those shared columns.

    The index addresses rows and columns by stable slots, not label
    ranks, so every tie-break reads the labels: seeds order by
    (-potential, row label), the keep-top-*min_cols* fallback by
    (contribution, -column label), and rectangles leave label-sorted.
    Everything else — candidate intersections, the half-step memos,
    ``rect_gain`` — is order-free.
    """
    view = matrix.bitview()
    values = view.value_table(value_fn)
    row_cols = view.row_cols
    col_rows = view.col_rows
    cells = view.cells
    row_cost = view.row_cost
    col_cost = view.col_cost
    row_labels = view.row_labels
    col_labels = view.col_labels

    getval = values.__getitem__

    def top_cols(scored: List[Tuple[int, int]]) -> Tuple[int, ...]:
        # Fewer than min_cols columns contribute positively: keep the
        # top min_cols by contribution, ties to the smaller label, so
        # the rectangle stays a kernel.
        if len(scored) < min_cols:
            return ()
        scored.sort(key=lambda cs: (-cs[0], col_labels[cs[1]]))
        return tuple(sorted([c for _, c in scored[:min_cols]]))

    def cols_for_rows(rows: Tuple[int, ...]) -> Tuple[int, ...]:
        # When enough columns contribute positively the result is just
        # their sorted slots; the ranking only matters for the fallback.
        if len(rows) == 1:
            # A seed's first half-step: its candidate columns are exactly
            # its own cells, no intersection needed.
            rcells = cells[rows[0]]
            pos = [
                cpos
                for cpos, eid in rcells.items()
                if values[eid] > col_cost[cpos]
            ]
            if len(pos) >= min_cols:
                return tuple(sorted(pos))
            return top_cols(
                [(values[eid] - col_cost[cpos], cpos) for cpos, eid in rcells.items()]
            )
        cand = row_cols[rows[0]]
        for r in rows[1:]:
            cand &= row_cols[r]
            if not cand:
                return ()
        rdicts = [cells[r] for r in rows]
        scored = []
        m = cand
        while m:
            low = m & -m
            cpos = low.bit_length() - 1
            m ^= low
            contrib = -col_cost[cpos]
            for rc in rdicts:
                contrib += values[rc[cpos]]
            scored.append((contrib, cpos))
        pos = [cpos for contrib, cpos in scored if contrib > 0]
        if len(pos) >= min_cols:
            return tuple(pos)  # the mask walk visits slots in order
        return top_cols(scored)

    def rows_for_cols(cols: Tuple[int, ...]) -> Tuple[int, ...]:
        cand = col_rows[cols[0]]
        for c in cols[1:]:
            cand &= col_rows[c]
            if not cand:
                return ()
        chosen: List[int] = []
        m = cand
        if len(cols) > 1:
            # Every candidate row has a cell in every chosen column (cand
            # is the intersection), so itemgetter/map run the whole
            # marginal sum in C.
            getcols = itemgetter(*cols)
            while m:
                low = m & -m
                rpos = low.bit_length() - 1
                m ^= low
                if sum(map(getval, getcols(cells[rpos]))) > row_cost[rpos]:
                    chosen.append(rpos)
        else:
            c0 = cols[0]
            while m:
                low = m & -m
                rpos = low.bit_length() - 1
                m ^= low
                if values[cells[rpos][c0]] > row_cost[rpos]:
                    chosen.append(rpos)
        return tuple(chosen)

    if value_fn is default_value:
        # Maintained by the index's mutators once built.
        potential = view.potentials()
    else:
        potential = seed_potentials(cells, [popcount(mask) for mask in col_rows], values)
    # Seeds are the live slots only, most potential first, ties to the
    # smaller row label.
    seeds = [
        r for _, _, r in sorted([
            (-potential[r], lab, r) for lab, r in view.row_pos.items()
        ])
    ]
    if max_seeds is not None:
        seeds = seeds[:max_seeds]

    # Different seeds funnel into the same ascent states (that is why
    # the candidate list dedupes at the end), and both half-steps and
    # the gain are pure functions of the state for the duration of one
    # search — so memoize them per state tuple.  The round loop itself
    # still runs per seed, so the meter charges one pingpong_round per
    # round of every seed.
    memo_cfr: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    memo_rfc: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    # Fixpoint state → the finished (Rectangle, gain), or () when the
    # gain is not positive.  Rectangles are immutable, so ascents that
    # converge to the same state can share one object.
    memo_out: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], tuple] = {}

    tracing = active_tracer() is not None
    n_rounds = 0
    n_memo_hits = 0

    for seed in seeds:
        rows: Tuple[int, ...] = (seed,)
        cols: Tuple[int, ...] = ()
        for _ in range(max_rounds):
            if meter is not None:
                meter.charge("pingpong_round", 1)
            if tracing:
                n_rounds += 1
            new_cols = memo_cfr.get(rows)
            if new_cols is None:
                new_cols = cols_for_rows(rows)
                memo_cfr[rows] = new_cols
            elif tracing:
                n_memo_hits += 1
            if not new_cols:
                break
            new_rows = memo_rfc.get(new_cols)
            if new_rows is None:
                new_rows = rows_for_cols(new_cols)
                memo_rfc[new_cols] = new_rows
            elif tracing:
                n_memo_hits += 1
            if not new_rows:
                break
            if new_cols == cols and new_rows == rows:
                break
            cols, rows = new_cols, new_rows
        if len(cols) < min_cols or not rows:
            continue
        state = (rows, cols)
        out = memo_out.get(state)
        if out is None:
            gain = view.rect_gain(rows, cols, values)
            if gain > 0:
                out = (
                    Rectangle(
                        rows=tuple(sorted([row_labels[r] for r in rows])),
                        cols=tuple(sorted([col_labels[c] for c in cols])),
                    ),
                    gain,
                )
            else:
                out = ()
            memo_out[state] = out
        elif tracing:
            n_memo_hits += 1
        if out:
            yield out
    if tracing:
        add_counters(
            pingpong_round_visit=n_rounds,
            memo_hit=n_memo_hits,
            ascent_seed=len(seeds),
        )


def pingpong_candidates(
    matrix: KCMatrix,
    value_fn: ValueFn = default_value,
    min_cols: int = 2,
    max_seeds: Optional[int] = None,
    max_rounds: int = 8,
    meter=None,
) -> List[Tuple[Rectangle, int]]:
    """All distinct positive-gain local optima, best first.

    Used by consumers that need alternatives beyond the single best —
    e.g. the timing-driven extraction loop, which skips rectangles whose
    new node would violate the depth budget.
    """
    found: dict = {}
    for rect, gain in _ascents_bit(
        matrix, value_fn, min_cols, max_seeds, max_rounds, meter
    ):
        key = (rect.rows, rect.cols)
        if key not in found or found[key][1] < gain:
            found[key] = (rect, gain)
    return sorted(found.values(), key=lambda rg: (-rg[1], rg[0].cols, rg[0].rows))


def best_rectangle_pingpong(
    matrix: KCMatrix,
    value_fn: ValueFn = default_value,
    min_cols: int = 2,
    max_seeds: Optional[int] = None,
    max_rounds: int = 8,
    meter=None,
) -> Optional[Tuple[Rectangle, int]]:
    """Best rectangle found by seeded coordinate ascent.

    Every row seeds one ascent (most-shared rows first; *max_seeds* caps
    the number tried).  Deterministic: ties break toward
    lexicographically smaller (cols, rows).
    """
    best: Optional[Tuple[Rectangle, int]] = None
    for rect, gain in _ascents_bit(
        matrix, value_fn, min_cols, max_seeds, max_rounds, meter
    ):
        if (
            best is None
            or gain > best[1]
            or (gain == best[1] and (rect.cols, rect.rows) < (best[0].cols, best[0].rows))
        ):
            best = (rect, gain)
    return best
