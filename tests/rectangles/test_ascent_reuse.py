"""Replayed ping-pong ascents against the from-scratch dense walk.

A default-value ping-pong search keeps, per seed slot, what the seed's
ascent read and reached (:class:`repro.rectangles.pingpong.Ascent`), and
the next search replays every record whose inputs the matrix has
not marked dirty.  Whole-run comparisons cannot tell a stale replay
from a fresh ascent: a stale seed rarely changes the best rectangle.
So every search here is compared on its own — the full (rectangle,
gain) stream and the ``pingpong_round`` charge — against the dense walk
over a fresh compilation (:mod:`tests.rectangles.dense_pingpong`):

- after random mutation batches (row and column adds and removals,
  entries, relabels both ways, slot reuse);
- on a hand-built matrix where a new row joins a recorded column
  intersection while every row the ascent read stays clean;
- on a hand-built matrix where a ``relabel_col`` flips which columns
  the keep-top-``min_cols`` fallback keeps.

Three mutants of the reuse rule must each be caught, and the
``REPRO_CHECK=1`` replay audit must reject a corrupted record.
"""

from __future__ import annotations

import inspect
import random
import textwrap

import pytest

from repro.circuits.mcnc import make_circuit
from repro.machine.costmodel import CostMeter
from repro.obs.tracer import Tracer, use_tracer
from repro.rectangles import pingpong, power
from repro.rectangles.cover import kernel_extract
from repro.rectangles.kcmatrix import KCMatrix
from repro.rectangles.rectangle import Rectangle, default_value
from repro.verify import audit
from tests.rectangles.dense_pingpong import dense_ascents
from tests.rectangles.test_live_bitview import OPS, _mutate

ALL_OPS = OPS + ["relabel_row"] * 2


def _search(mat, max_seeds=None):
    """One live search: (stream, round charge, tracer counters)."""
    meter = CostMeter()
    tracer = Tracer()
    with use_tracer(tracer), tracer.span("search") as sp:
        stream = list(pingpong._ascents_bit(mat, default_value, 2, max_seeds, 8, meter))
    return stream, meter.counts.get("pingpong_round"), dict(sp.counters)


def _assert_matches_dense(mat, max_seeds=None):
    """Search *mat* live and with the dense walk; return the counters."""
    stream, rounds, counters = _search(mat, max_seeds)
    meter = CostMeter()
    want = list(dense_ascents(mat, default_value, 2, max_seeds, 8, meter))
    assert stream == want
    assert rounds == meter.counts.get("pingpong_round")
    assert counters["ascents_reused"] + counters["ascents_rerun"] == counters["ascent_seed"]
    assert counters["pingpong_round_visit"] == (rounds or 0)
    return counters


def _random_sequence(seed, max_seeds):
    """Random mutation batches, each followed by a checked search;
    return the (reused, rerun) totals."""
    rng = random.Random(seed)
    mat = KCMatrix()
    next_label = [0]
    for _ in range(10):
        _mutate(mat, rng, next_label, ALL_OPS)
    reused = rerun = 0
    for _ in range(30):
        counters = _assert_matches_dense(mat, max_seeds)
        reused += counters["ascents_reused"]
        rerun += counters["ascents_rerun"]
        for _ in range(rng.randint(1, 3)):
            _mutate(mat, rng, next_label, ALL_OPS)
    return reused, rerun


@pytest.mark.parametrize("max_seeds", [None, 4])
@pytest.mark.parametrize("seed", range(12))
def test_random_mutation_batches_match_the_dense_walk(seed, max_seeds):
    reused, rerun = _random_sequence(seed, max_seeds)
    # Both paths ran: the comparison covered replays, not only re-runs.
    assert reused and rerun


def _joining_row_matrix():
    """Rows 1 and 2 share columns 10 and 20: both seeds reach the 2×2
    rectangle through the intersection {1, 2}."""
    mat = KCMatrix()
    mat.add_row(1, "f", (1,))
    mat.add_row(2, "g", (2,))
    for kc, lab in (((5, 6), 10), ((7, 8), 20)):
        mat.ensure_col(kc, lambda lab=lab: lab)
        mat.add_entry(1, lab)
        mat.add_entry(2, lab)
    return mat


def _new_row_joins():
    mat = _joining_row_matrix()
    first, _, _ = _search(mat)
    assert first == [(Rectangle(rows=(1, 2), cols=(10, 20)), 4)] * 2
    # Row 3 is new, so no recorded ascent read it; rows 1 and 2 stay
    # clean.  It joins columns 10 and 20, whose intersection the
    # ascents from rows 1 and 2 recorded as {1, 2}.
    mat.add_row(3, "h", (3,))
    mat.add_entry(3, 10)
    mat.add_entry(3, 20)
    counters = _assert_matches_dense(mat)
    stream, _, _ = _search(mat)
    assert stream[0][0] == Rectangle(rows=(1, 2, 3), cols=(10, 20))
    return counters


def test_a_new_row_joining_a_recorded_intersection_reruns_the_seed():
    counters = _new_row_joins()
    # Seeds 1 and 2 re-ran (their step intersections grew); the new
    # seed 3 had no record.
    assert counters["ascents_reused"] == 0 and counters["ascents_rerun"] == 3


def _fallback_matrix():
    """Seed row 1's three columns tie at contribution 0, so the
    keep-top-2 fallback keeps the two smallest labels: {30, 40} is a
    dead end, {40, 50} is shared with row 2."""
    mat = KCMatrix()
    mat.add_row(1, "f", ())
    mat.add_row(2, "f", (9,))
    a, b, c = (mat.ensure_col(kc, lambda lab=lab: lab)
               for kc, lab in (((1, 2, 3), 50), ((4, 5, 6), 40), ((7, 8, 10), 30)))
    for col in (a, b, c):
        mat.add_entry(1, col)
    for col in (a, b):
        mat.add_entry(2, col)
    return mat


def _relabel_flips_fallback():
    mat = _fallback_matrix()
    _assert_matches_dense(mat)
    # Row 2 seeds first; row 1's ascent is a dead end, so only row 2's
    # yields.
    stream, _, _ = _search(mat)
    assert stream == [(Rectangle(rows=(1, 2), cols=(40, 50)), 5)]
    # Column 30 moves above 50: the fallback now keeps {40, 50}, and
    # row 1's ascent reaches the shared rectangle too.  No row changed.
    mat.relabel_col(30, 60)
    counters = _assert_matches_dense(mat)
    stream, _, _ = _search(mat)
    assert stream == [(Rectangle(rows=(1, 2), cols=(40, 50)), 5)] * 2
    return counters


def test_a_relabel_that_flips_the_fallback_reruns_the_seed():
    counters = _relabel_flips_fallback()
    # Row 2's ascent read no fallback label and replays; row 1 re-runs.
    assert counters["ascents_reused"] == 1 and counters["ascents_rerun"] == 1


def test_unchanged_matrix_replays_every_seed():
    mat = _joining_row_matrix()
    _search(mat)
    counters = _assert_matches_dense(mat)
    assert counters["ascents_reused"] == counters["ascent_seed"] == 2


def test_kernel_extract_counts_every_seed_once():
    # A whole sequential run: reused + rerun seeds add up to the seeds,
    # and the replayed rounds keep the traced rounds equal to the meter.
    meter = CostMeter()
    tracer = Tracer()
    with use_tracer(tracer), tracer.span("job"):
        kernel_extract(make_circuit("misex3", scale=0.1), meter=meter)
    totals = {}
    for sp in tracer.finished():
        for name, value in sp.counters.items():
            totals[name] = totals.get(name, 0) + value
    assert totals["ascents_reused"] > 0 and totals["ascents_rerun"] > 0
    assert totals["ascents_reused"] + totals["ascents_rerun"] == totals["ascent_seed"]
    assert totals["pingpong_round_visit"] == meter.counts["pingpong_round"]


def test_other_value_functions_keep_no_records():
    # Power's activity values have no event source, so its searches
    # keep no records and leave no marks.  (L-shaped's cube-state view
    # does: see tests/parallel/test_lshaped_live_values.py.)
    searched = []
    real = power.best_rectangle_pingpong

    def recording(mat, **kw):
        got = real(mat, **kw)
        searched.append(mat)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(power, "best_rectangle_pingpong", recording)
        power.power_kernel_extract(
            make_circuit("dalu", scale=0.1), vectors=256, max_iterations=3
        )
    assert searched
    for mat in searched:
        assert mat._ascents is None
        assert not mat._ascent_rows and not mat._ascent_cols


def test_changed_search_parameters_rerun_every_seed():
    mat = _joining_row_matrix()
    pingpong.best_rectangle_pingpong(mat, max_rounds=8)
    tracer = Tracer()
    with use_tracer(tracer), tracer.span("search") as sp:
        pingpong.best_rectangle_pingpong(mat, max_rounds=3)
    assert sp.counters["ascents_reused"] == 0


# ----------------------------------------------------------------------
# The REPRO_CHECK=1 replay audit
# ----------------------------------------------------------------------

@pytest.mark.parametrize("field", ["gain", "rounds"])
def test_audit_rejects_a_corrupted_record(field):
    mat = _joining_row_matrix()
    pingpong.best_rectangle_pingpong(mat)
    slot = mat.rows[1].slot
    rec = mat._ascents[slot]
    assert rec.gain is not None
    audit.set_audits(True)
    try:
        # Intact records pass the audit.
        pingpong.best_rectangle_pingpong(mat)
        mat._ascents[slot] = rec._replace(**{field: getattr(rec, field) + 1})
        with pytest.raises(audit.InvariantViolation):
            pingpong.best_rectangle_pingpong(mat)
    finally:
        audit.set_audits(None)


# ----------------------------------------------------------------------
# Mutants of the reuse rule the comparisons must catch
# ----------------------------------------------------------------------

MUTANTS = {
    "skip the intersection recheck": (
        pingpong, "_replayable", "if mask != cand:", "if False:",
    ),
    "add_entry does not mark its row": (
        KCMatrix, "add_entries", "self._ascent_rows.add(rslot)", "pass",
    ),
    "relabel_col does not mark its column": (
        KCMatrix, "relabel_col", "self._ascent_cols.add(slot)", "pass",
    ),
}


def _mutant(name):
    owner, attr, old, new = MUTANTS[name]
    fn = getattr(owner, attr)
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1, f"mutation site for {name!r} not found"
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(compile(src.replace(old, new), "<mutant>", "exec"), namespace)
    return owner, attr, namespace[attr]


def _caught() -> bool:
    """Whether any check in this module fails."""
    checks = [_new_row_joins, _relabel_flips_fallback]
    checks += [
        (lambda seed=seed, max_seeds=max_seeds: _random_sequence(seed, max_seeds))
        for seed in range(12) for max_seeds in (None, 4)
    ]
    for check in checks:
        try:
            check()
        except AssertionError:
            return True
    return False


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutants_are_caught(name):
    owner, attr, mutant = _mutant(name)
    # The comparisons must catch the mutant on their own, without the
    # replay audit re-running every reused seed.
    audit.set_audits(False)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(owner, attr, mutant)
            assert _caught(), f"mutant {name!r} survived"
    finally:
        audit.set_audits(None)
    assert not _caught()
