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

The ascents run over the matrix's bitset slots (patched by every
mutation rather than recompiled per search): candidate sets are single
``&`` operations and cell values are table lookups.

Under the value the matrix maintains — the default value, or a live
table bound to it such as L-shaped's cube-state view — the matrix also
keeps each seed's last ascent (:class:`Ascent`: its fixpoint, gain and
rounds, and what it read), and the next search on the same matrix
replays every seed none of whose inputs the mutators or value patches
have marked since; only the others climb again (see
:func:`_ascents_bit` for the rule).  Answers, yield order and meter
charges are those of a search from scratch, so the virtual clock still
prices the paper's full ``gkx`` search per extraction.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.obs.tracer import active_tracer, add_counters
from repro.rectangles.bitview import popcount, seed_potentials
from repro.rectangles.kcmatrix import KCMatrix
from repro.rectangles.rectangle import (
    Rectangle,
    ValueFn,
    default_value,
)
from repro.verify import audit as _audit


class Ascent(NamedTuple):
    """What one seed's ascent reached and what it read (slots, not labels)."""

    rows: Tuple[int, ...]  # the fixpoint's row slots
    cols: Tuple[int, ...]  # the fixpoint's column slots
    gain: Optional[int]  # its rect_gain; None when it is no rectangle
    rounds: int  # pingpong_round charges
    read: int  # mask of the row slots whose cells it read
    steps: Tuple[Tuple[Tuple[int, ...], int], ...]  # (cols, candidate rows) per cols→rows step
    ranked: Tuple[int, ...]  # column slots a keep-top-min_cols fallback ranked by label


def _replayable(rec: Ascent, dirty_rows: int, dirty_cols, col_rows: List[int]) -> bool:
    """Whether nothing *rec* read has changed since it was recorded."""
    if rec.read & dirty_rows:
        return False
    if not dirty_cols:
        return True
    if rec.ranked and not dirty_cols.isdisjoint(rec.ranked):
        return False
    for cols, cand in rec.steps:
        if dirty_cols.isdisjoint(cols):
            continue
        # A row outside the read set may have joined (or a row left)
        # every column of the step.
        mask = col_rows[cols[0]]
        for c in cols[1:]:
            mask &= col_rows[c]
        if mask != cand:
            return False
    return True


def _ascents_bit(
    matrix, value_fn, min_cols, max_seeds, max_rounds, meter
) -> Iterator[Tuple[Rectangle, int]]:
    """Yield the (rectangle, gain) each seed's coordinate ascent reaches.

    Seeds are ranked by potential: a row is promising when its columns
    are shared by other rows (that sharing is what a rectangle
    monetizes), weighted by the value sitting in those shared columns.

    The matrix addresses rows and columns by stable slots, not label
    ranks, so every tie-break reads the labels: seeds order by
    (-potential, row label), the keep-top-*min_cols* fallback by
    (contribution, -column label), and rectangles leave label-sorted.
    Everything else — candidate intersections, the half-step memos,
    ``rect_gain`` — is order-free.

    Under the value the matrix maintains (``matrix.value_source``: the
    default value, or a bound live table) the matrix keeps, per seed
    slot, what that seed's ascent read and reached in the previous
    search (:class:`Ascent`).  An ascent is a pure function of what it
    read: the cells and costs of the seed and of every candidate row of
    each cols→rows step (a clean row's cells, their values and their
    columns' costs cannot change without the row being marked), each
    step's candidate mask (a new row can join the intersection while
    every row read stays clean), and the labels of the columns a
    fallback ranked.  So a recorded ascent is replayed instead of re-run
    when no row in its read mask is dirty, every step's column tuple
    still intersects to the recorded mask, and no fallback-ranked column
    is dirty.  A replay charges the recorded rounds and rebuilds its
    rectangle from the current labels (a row relabel moves labels, not
    slots); the stream, the meter and the answer are those of a search
    from scratch.  Under ``REPRO_CHECK=1`` every replayed seed is also
    re-run from scratch and must reach the same fixpoint, gain and round
    count.  Any other ``value_fn`` re-runs every seed and keeps nothing.
    Under ``REPRO_CHECK=1`` each search first checks the whole store.
    """
    if _audit.enabled():
        _audit.audit_store(matrix)
    values = matrix.value_table(value_fn)
    row_cols = matrix.row_cols
    col_rows = matrix.col_rows
    cells = matrix.row_cells
    row_cost = matrix.row_cost
    col_cost = matrix.col_cost
    row_labels = matrix.row_labels
    col_labels = matrix.col_labels

    getval = values.__getitem__
    recording = value_fn is matrix.value_source

    def top_cols(scored: List[Tuple[int, int]]):
        # Fewer than min_cols columns contribute positively: keep the
        # top min_cols by contribution, ties to the smaller label, so
        # the rectangle stays a kernel.
        if len(scored) < min_cols:
            return (), ()
        scored.sort(key=lambda cs: (-cs[0], col_labels[cs[1]]))
        chosen = tuple(sorted([c for _, c in scored[:min_cols]]))
        return chosen, (tuple([c for _, c in scored]) if recording else ())

    def cols_for_rows(rows: Tuple[int, ...]):
        # (the chosen column slots, the slots a fallback ranked by label
        # while recording).
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
                return tuple(sorted(pos)), ()
            return top_cols(
                [(values[eid] - col_cost[cpos], cpos) for cpos, eid in rcells.items()]
            )
        cand = row_cols[rows[0]]
        for r in rows[1:]:
            cand &= row_cols[r]
            if not cand:
                return (), ()
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
            return tuple(pos), ()  # the mask walk visits slots in order
        return top_cols(scored)

    def rows_for_cols(cols: Tuple[int, ...]):
        # (the chosen row slots, the candidate row mask they came from).
        cand = col_rows[cols[0]]
        for c in cols[1:]:
            cand &= col_rows[c]
            if not cand:
                return (), 0
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
        return tuple(chosen), cand

    def ascend(seed: int, memo_cfr: dict, memo_rfc: dict, memo_gain: dict):
        # One seed's coordinate ascent, and how many memo hits it had.
        # While recording it returns an Ascent; otherwise only its
        # (rows, cols, gain, rounds).
        rows: Tuple[int, ...] = (seed,)
        cols: Tuple[int, ...] = ()
        read = 1 << seed
        steps = []
        ranked: Tuple[int, ...] = ()
        rounds = hits = 0
        for _ in range(max_rounds):
            rounds += 1
            got = memo_cfr.get(rows)
            if got is None:
                got = memo_cfr[rows] = cols_for_rows(rows)
            else:
                hits += 1
            new_cols, by_label = got
            if by_label:
                ranked += by_label
            if not new_cols:
                break
            got = memo_rfc.get(new_cols)
            if got is None:
                got = memo_rfc[new_cols] = rows_for_cols(new_cols)
            else:
                hits += 1
            new_rows, cand = got
            if recording and new_cols != cols:  # else already recorded
                read |= cand
                steps.append((new_cols, cand))
            if not new_rows:
                break
            if new_cols == cols and new_rows == rows:
                break
            cols, rows = new_cols, new_rows
        gain = None
        if len(cols) >= min_cols and rows:
            state = (rows, cols)
            gain = memo_gain.get(state)
            if gain is None:
                gain = memo_gain[state] = matrix.rect_gain(rows, cols, values)
            else:
                hits += 1
        if recording:
            return Ascent(rows, cols, gain, rounds, read, tuple(steps), ranked), hits
        return (rows, cols, gain, rounds), hits

    if recording:
        # Maintained by the matrix's mutators once built.
        potential = matrix.potentials()
    else:
        potential = seed_potentials(cells, [popcount(mask) for mask in col_rows], values)
    # Seeds are the live slots only, most potential first, ties to the
    # smaller row label.
    seeds = [
        r for _, _, r in sorted([
            (-potential[r], lab, r) for r, lab in enumerate(row_labels) if lab is not None
        ])
    ]
    if max_seeds is not None:
        seeds = seeds[:max_seeds]

    old: Dict[int, Ascent] = {}
    if recording:
        key = (min_cols, max_rounds)
        old, dirty_rows, dirty_cols = matrix.ascent_records(key)
    auditing = _audit.enabled()

    # Different seeds funnel into the same ascent states (that is why
    # the candidate list dedupes at the end), and both half-steps and
    # the gain are pure functions of the state for the duration of one
    # search — so memoize them per state tuple.  The round loop itself
    # still runs per re-run seed, and the meter charges every seed's
    # rounds, replayed or not.
    memo_cfr: Dict[Tuple[int, ...], tuple] = {}
    memo_rfc: Dict[Tuple[int, ...], tuple] = {}
    memo_gain: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}
    # Rectangles are immutable, so ascents that converge to the same
    # state can share one object.
    memo_rect: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Rectangle] = {}

    tracing = active_tracer() is not None
    kept: Dict[int, Ascent] = {}
    n_rounds = 0
    n_memo_hits = 0
    n_reused = 0

    for seed in seeds:
        rec = old.get(seed)
        if rec is not None and _replayable(rec, dirty_rows, dirty_cols, col_rows):
            if auditing:
                fresh, _ = ascend(seed, {}, {}, {})
                _audit.audit_ascent_replay(row_labels[seed], rec, fresh)
            n_reused += 1
        else:
            rec, hits = ascend(seed, memo_cfr, memo_rfc, memo_gain)
            n_memo_hits += hits
        if recording:
            kept[seed] = rec
        rows, cols, gain, rounds = rec[:4]
        if meter is not None:
            meter.charge("pingpong_round", rounds)
        n_rounds += rounds
        if gain is None or gain <= 0:
            continue
        state = (rows, cols)
        rect = memo_rect.get(state)
        if rect is None:
            rect = memo_rect[state] = Rectangle(
                rows=tuple(sorted([row_labels[r] for r in rows])),
                cols=tuple(sorted([col_labels[c] for c in cols])),
            )
        yield rect, gain
    if recording:
        # Reached only when the caller drains the stream.  A stream left
        # early keeps the previous records and their marks, which stay
        # valid.
        matrix.keep_ascent_records(key, kept)
    if tracing:
        add_counters(
            pingpong_round_visit=n_rounds,
            memo_hit=n_memo_hits,
            ascent_seed=len(seeds),
            ascents_reused=n_reused,
            ascents_rerun=len(seeds) - n_reused,
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
