"""The dense ping-pong walk, kept as the differential oracle.

Before the live bitset index, the bit core's ping-pong ran on the
sorted compilation (:class:`tests.rectangles.compiled_walk.BitKCView`),
whose positions are label ranks, so every tie-break followed positions.  This
module keeps that walk verbatim, over a fresh compilation whose
``dup_rows`` is the original full scan rather than the matrix's overlap
counts.  Swap it in for ``repro.rectangles.pingpong._ascents_bit`` to
get the reference run.
"""

from __future__ import annotations

from operator import itemgetter, mul
from typing import Dict, List, Set, Tuple

from repro.obs.tracer import active_tracer, add_counters
from repro.rectangles.bitview import popcount
from repro.rectangles.rectangle import Rectangle
from tests.rectangles.compiled_walk import BitKCView


class FullScanView(BitKCView):
    """A sorted compilation that finds duplicate-cube rows by scanning
    every row, independent of ``KCMatrix.overlap_rows``."""

    __slots__ = ()

    def dup_rows(self) -> Set[int]:
        got = self._dup_rows
        if got is None:
            got = set()
            cubes = self.entry_cubes
            for rpos, rcells in enumerate(self.cells):
                if len({cubes[eid] for eid in rcells.values()}) < len(rcells):
                    got.add(rpos)
            self._dup_rows = got
        return got


def dense_ascents(matrix, value_fn, min_cols, max_seeds, max_rounds, meter):
    """The dense walk: ascents over a fresh sorted compilation."""
    view = FullScanView(matrix)
    values = view.value_table(value_fn)
    row_cols = view.row_cols
    col_rows = view.col_rows
    cells = view.cells
    row_cost = view.row_cost
    col_cost = view.col_cost
    row_labels = view.row_labels
    col_labels = view.col_labels

    getval = values.__getitem__

    def cols_for_rows(rows: Tuple[int, ...]) -> Tuple[int, ...]:
        # When enough columns contribute positively the result is just
        # their sorted positions — the (contrib, -cpos) ranking only
        # matters for the keep-top-min_cols fallback, so the scored list
        # and its sort are skipped on the fast path.
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
            scored = [
                (values[eid] - col_cost[cpos], -cpos)
                for cpos, eid in rcells.items()
            ]
        else:
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
                scored.append((contrib, -cpos))
            pos = [(-negc) for contrib, negc in scored if contrib > 0]
            if len(pos) >= min_cols:
                return tuple(sorted(pos))
        scored.sort(reverse=True)
        chosen = [(-negc) for contrib, negc in scored if contrib > 0]
        if len(chosen) < min_cols:
            chosen = [(-negc) for _, negc in scored[:min_cols]]
            if len(chosen) < min_cols:
                return ()
        return tuple(sorted(chosen))

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

    shar1 = [popcount(mask) - 1 for mask in col_rows]
    getshar = shar1.__getitem__
    potential: List[int] = [
        sum(map(mul, map(getshar, rcells.keys()), map(getval, rcells.values())))
        for rcells in cells
    ]
    order = sorted(zip([-p for p in potential], range(len(row_labels))))
    seeds = [r for _, r in order]
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
                        rows=tuple([row_labels[r] for r in rows]),
                        cols=tuple([col_labels[c] for c in cols]),
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
