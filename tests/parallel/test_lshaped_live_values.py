"""L-shaped's live cube-state value tables against fresh valuations.

Each L-shaped processor holds its Table 5 view of the cube-state store
(:class:`repro.parallel.cubestate.CubeStateValues`) as the value table
of its KC matrix: built once, then patched by the
store's ``cover``, ``divide`` and ``release_owner`` transitions, with
each value change marking its row for the ascent records and shifting
the row's seed potential.  A stale cell rarely changes a whole run's
answer, so every search here is compared on its own — the full
(rectangle, gain) stream and the ``cube_state_op`` and
``pingpong_round`` charges — against a fresh copy of the same matrix
valued cell by cell through ``store.value``:

- after random sequences of ``cover``, ``divide``, ``release_owner``
  and ``remove_row`` on processors whose matrices share cube refs
  (plus the rarer ``add_row``/``add_entry`` and ``remove_col``, which
  the bound table must follow too);
- at every search of whole L-shaped runs.

One mutant per patch must each be caught by the comparisons alone,
with the ``REPRO_CHECK=1`` audits off; the audit must reject a
corrupted table.
"""

from __future__ import annotations

import gc
import inspect
import random
import textwrap
import weakref

import pytest

from repro.circuits.mcnc import make_circuit
from repro.machine.costmodel import CostMeter
from repro.obs.tracer import Tracer, use_tracer
from repro.parallel import lshaped
from repro.parallel.cubestate import CubeStateStore, CubeStateValues
from repro.rectangles import pingpong
from repro.rectangles.kcmatrix import KCMatrix
from repro.verify import audit

NPROCS = 3


def _copy(mat: KCMatrix, rows=None) -> KCMatrix:
    """A fresh matrix with *mat*'s labels (all rows, or *rows*)."""
    out = KCMatrix()
    keep = sorted(mat.rows) if rows is None else sorted(rows)
    for r in keep:
        info = mat.rows[r]
        out.add_row(r, info.node, info.cokernel)
    for r in keep:
        for c in sorted(mat.cols_of_row(r)):
            out.ensure_col(mat.cols[c], lambda c=c: c)
            out.add_entry(r, c)
    return out


def _random_matrix(rng: random.Random) -> KCMatrix:
    """A small matrix over few nodes and literals, so that cells of one
    node often name the same cube (one ref, several cells)."""
    mat = KCMatrix()
    pool = [tuple(sorted(rng.sample(range(1, 8), rng.randint(1, 2))))
            for _ in range(9)]
    for r in range(1, rng.randint(6, 12) + 1):
        mat.add_row(r, f"n{rng.randrange(3)}",
                    tuple(sorted(rng.sample(range(1, 8), rng.randint(0, 2)))))
        for kc in rng.sample(pool, rng.randint(2, 5)):
            c = mat.col_of_cube.get(kc)
            if c is None:
                c = mat.ensure_col(kc, lambda: 100 + len(mat.cols))
            mat.add_entry(r, c)
    return mat


def _search(mat, value_fn, max_seeds, meter):
    return list(pingpong._ascents_bit(mat, value_fn, 2, max_seeds, 8, meter))


def _traced_search(view, mat, max_seeds):
    """One live search: (stream, charges, tracer counters)."""
    meter = CostMeter()
    tracer = Tracer()
    with use_tracer(tracer), tracer.span("search") as sp:
        view.prepare(mat, meter=meter)
        stream = _search(mat, view, max_seeds, meter)
    return stream, dict(meter.counts), dict(sp.counters)


def _fresh_search(store, pid, mat, max_seeds):
    """The reference: a fresh copy valued through ``store.value``."""
    meter = CostMeter()
    stream = _search(
        _copy(mat),
        lambda node, cube: store.value((node, cube), pid, meter=meter),
        max_seeds, meter,
    )
    return stream, dict(meter.counts)


def _random_sequence(seed, max_seeds):
    """Random store transitions and row removals, each batch followed
    by a checked search per processor; return the (reused, rerun)
    seed totals."""
    rng = random.Random(seed)
    full = _random_matrix(rng)
    refs = sorted({full.cube_ref(r, c) for (r, c) in full.cells()})
    store = CubeStateStore()
    views = [CubeStateValues(store, pid) for pid in range(NPROCS)]
    # Overlapping row subsets: processors share rows, hence refs, as
    # the slabs and vertical legs of an L-shaped cycle do.
    mats = [_copy(full, rng.sample(sorted(full.rows), (2 * len(full.rows)) // 3))
            for _ in range(NPROCS)]
    reused = rerun = 0
    for _ in range(12):
        for pid, mat in enumerate(mats):
            if not mat.rows:
                continue
            stream, charges, counters = _traced_search(views[pid], mat, max_seeds)
            assert (stream, charges) == _fresh_search(store, pid, mat, max_seeds)
            reused += counters["ascents_reused"]
            rerun += counters["ascents_rerun"]
        for _ in range(rng.randint(1, 3)):
            op = rng.choice(["cover", "cover", "divide", "release", "remove_row"])
            if op == "cover":
                store.cover(rng.sample(refs, rng.randint(1, 4)), rng.randrange(NPROCS))
            elif op == "divide":
                store.divide(rng.sample(refs, rng.randint(1, 2)))
            elif op == "release":
                store.release_owner(rng.randrange(NPROCS))
            else:
                _mutate(rng.choice(mats), full, rng)
    return reused, rerun


def _mutate(mat: KCMatrix, full: KCMatrix, rng: random.Random) -> None:
    """Remove a row; now and then add one back from *full* or remove a
    column."""
    op = rng.choice(["remove_row"] * 4 + ["add_row", "remove_col"])
    if op == "add_row":
        missing = sorted(set(full.rows) - set(mat.rows))
        if missing:
            r = rng.choice(missing)
            info = full.rows[r]
            mat.add_row(r, info.node, info.cokernel)
            for c in sorted(full.cols_of_row(r)):
                mat.ensure_col(full.cols[c], lambda c=c: c)
                mat.add_entry(r, c)
    elif op == "remove_col" and mat.cols:
        mat.remove_col(rng.choice(sorted(mat.cols)))
    elif mat.rows:
        mat.remove_row(rng.choice(sorted(mat.rows)))


@pytest.mark.parametrize("max_seeds", [None, 4])
@pytest.mark.parametrize("seed", range(10))
def test_random_transitions_match_a_fresh_valuation(seed, max_seeds):
    reused, rerun = _random_sequence(seed, max_seeds)
    # Both paths ran: the comparison covered replays, not only re-runs.
    assert reused and rerun


# ----------------------------------------------------------------------
# Whole L-shaped runs
# ----------------------------------------------------------------------

def _checked_run(network, nprocs):
    """An L-shaped run comparing every search with a fresh valuation;
    return the traced counter totals."""
    real = lshaped.best_rectangle_pingpong
    searches = []

    def checked(mat, value_fn=None, meter=None, **kw):
        store, pid = value_fn.store, value_fn.pid
        fresh = CostMeter()
        want = real(
            _copy(mat),
            value_fn=lambda node, cube: store.value((node, cube), pid, meter=fresh),
            meter=fresh, **kw,
        )
        before = meter.counts.get("pingpong_round", 0)
        got = real(mat, value_fn=value_fn, meter=meter, **kw)
        assert got == want
        assert meter.counts.get("pingpong_round", 0) - before == fresh.counts.get(
            "pingpong_round", 0)
        # The bulk charge the search's prepare() made, cell for cell.
        assert fresh.counts.get("cube_state_op", 0) == mat.num_entries
        searches.append(got)
        return got

    tracer = Tracer()
    with pytest.MonkeyPatch.context() as mp, use_tracer(tracer), tracer.span("job"):
        mp.setattr(lshaped, "best_rectangle_pingpong", checked)
        lshaped.lshaped_kernel_extract(network, nprocs)
    assert searches
    return tracer.counter_totals()


@pytest.mark.parametrize("nprocs", [2, 4])
def test_lshaped_searches_match_a_fresh_valuation(nprocs):
    totals = _checked_run(make_circuit("dalu", scale=0.1), nprocs)
    assert totals["ascents_reused"] > 0
    assert totals["ascents_reused"] + totals["ascents_rerun"] == totals["ascent_seed"]


def test_lshaped_search_spans_report_replayed_ascents():
    tracer = Tracer()
    with use_tracer(tracer), tracer.span("job"):
        lshaped.lshaped_kernel_extract(make_circuit("misex3", scale=0.15), 4)
    spans = [sp for sp in tracer.finished() if sp.name == "search"]
    reused = sum(sp.counters.get("ascents_reused", 0) for sp in spans)
    seeds = sum(sp.counters.get("ascent_seed", 0) for sp in spans)
    assert spans and 0 < reused < seeds


def test_each_cycle_frees_its_tables_without_the_cycle_collector():
    # A bound table and its matrix refer to each other; detaching at the
    # end of every cycle lets reference counting free the cycle's
    # store, tables and matrices.
    stores = []

    class Recorded(CubeStateStore):
        def __init__(self):
            super().__init__()
            stores.append(weakref.ref(self))

    gc.disable()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lshaped, "CubeStateStore", Recorded)
            lshaped.lshaped_kernel_extract(make_circuit("dalu", scale=0.1), 4)
        assert stores and all(ref() is None for ref in stores)
    finally:
        gc.enable()


def test_detached_tables_take_no_patches():
    mat = _random_matrix(random.Random(1))
    store = CubeStateStore()
    view = CubeStateValues(store, 0)
    view.prepare(mat)
    before = list(mat._values)
    store.detach()
    assert view.matrix is None
    store.divide([mat.cube_ref(r, c) for (r, c) in mat.cells()])
    assert mat._values == before


# ----------------------------------------------------------------------
# The REPRO_CHECK=1 table audit
# ----------------------------------------------------------------------

def test_audit_rejects_a_corrupted_table():
    rng = random.Random(0)
    mat = _random_matrix(rng)
    store = CubeStateStore()
    view = CubeStateValues(store, 0)
    view.prepare(mat)
    audit.set_audits(True)
    try:
        # An intact, patched table passes.
        store.cover([mat.cube_ref(r, c) for (r, c) in sorted(mat.cells())[:3]], 1)
        audit.audit_store(mat)
        eid = next(iter(mat.row_cells[mat.rows[min(mat.rows)].slot].values()))
        mat._values[eid] += 1
        with pytest.raises(audit.InvariantViolation, match="recompute"):
            view.prepare(mat)
    finally:
        audit.set_audits(None)


# ----------------------------------------------------------------------
# One mutant per patch; the comparisons must catch each
# ----------------------------------------------------------------------

MUTANTS = {
    "a cover by another processor does not zero the cell": (
        CubeStateStore, "cover", "self._changed(ref, rec)", "pass",
    ),
    "a divide does not zero the cell": (
        CubeStateStore, "divide", "self._changed(ref, rec)", "pass",
    ),
    "release_owner does not restore the value": (
        CubeStateStore, "release_owner", "self._changed(ref, rec)", "pass",
    ),
    "a value change does not mark its row": (
        KCMatrix, "set_ref_value", "self._ascent_rows.add(rslot)", "pass",
    ),
    "a value change does not shift the row's potential": (
        KCMatrix, "set_ref_value",
        "pot[rslot] += (self._pot_sizes[cslot] - 1) * delta", "pass",
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
    """Whether any random-sequence comparison fails."""
    for seed in range(10):
        for max_seeds in (None, 4):
            try:
                _random_sequence(seed, max_seeds)
            except AssertionError:
                return True
    return False


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutants_are_caught(name):
    owner, attr, mutant = _mutant(name)
    # The comparisons must catch the mutant on their own, without the
    # table audit recomputing every cell.
    audit.set_audits(False)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(owner, attr, mutant)
            assert _caught(), f"mutant {name!r} survived"
    finally:
        audit.set_audits(None)
    assert not _caught()
