"""The speculative cube-state protocol of Section 5.3 (Table 5).

Every original SOP cube that appears as a KC-matrix entry carries:

=========  =====  =====  ==================================================
state      V      T      meaning (paper Table 5)
=========  =====  =====  ==================================================
FREE       —      —      cube not covered by any best rectangle
COVERED    0      saved  covered by some processor's best rectangle,
                         not yet divided
DIVIDED    0      0      covered by some rectangle and divided out
=========  =====  =====  ==================================================

plus the *owner* attribute that qualifies COVERED: when the owning
processor asks for the value it receives the true value (the cube is not
yet divided, so a better rectangle of its own may still claim it); any
other processor receives zero (it cannot change the owner's best
rectangle, so for its purposes the cube is as good as gone).  This makes
each processor's search independent of the order in which rectangles are
generated — the problem analyzed at the end of Section 5.3.

A value changes only when the store covers, divides or releases a cube,
so each processor's view can live as a table instead of being asked
cell by cell: :class:`CubeStateValues` binds one processor's view to the
value table of its KC matrix, and the store pushes every value change
its transitions make into the bound tables.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.algebra.cube import Cube
from repro.verify import audit as _audit

CubeRef = Tuple[str, Cube]  # (node name, original cube)


class CubeStatus(enum.Enum):
    """The three states of Table 5."""

    FREE = "free"
    COVERED = "covered"
    DIVIDED = "divided"


@dataclass
class CubeRecord:
    """Per-cube protocol state: status, saved value, claiming processor."""

    status: CubeStatus = CubeStatus.FREE
    trueval: int = 0
    owner: int = -1


def _value_of(ref: CubeRef, rec: Optional[CubeRecord], pid: int) -> int:
    """Table 5: the value *rec* gives processor *pid*."""
    if rec is None or rec.status is CubeStatus.FREE:
        return len(ref[1])
    if rec.status is CubeStatus.DIVIDED:
        return 0
    # COVERED: owner sees the true value, everyone else sees zero.
    return rec.trueval if rec.owner == pid else 0


class CubeStateStore:
    """Shared-memory map from cube refs to their speculative state.

    Cubes never touched by any best rectangle have no record (implicit
    FREE).  ``meter``, when supplied to the operations, is charged
    ``cube_state_op`` per touch — the protocol's (small) runtime cost.
    Every transition that changes a record also patches the bound
    :class:`CubeStateValues` tables (uncharged: the searches charge
    their reads).
    """

    def __init__(self) -> None:
        self._recs: Dict[CubeRef, CubeRecord] = {}
        self._tables: List["CubeStateValues"] = []

    def record(self, ref: CubeRef) -> CubeRecord:
        """Fetch (or lazily create) the record for *ref*."""
        rec = self._recs.get(ref)
        if rec is None:
            rec = CubeRecord()
            self._recs[ref] = rec
        return rec

    def status(self, ref: CubeRef) -> CubeStatus:
        """Current state of *ref* (FREE when never touched)."""
        rec = self._recs.get(ref)
        return rec.status if rec is not None else CubeStatus.FREE

    def value(self, ref: CubeRef, asking_pid: int, meter=None) -> int:
        """The value the protocol returns to *asking_pid* (Table 5)."""
        if meter is not None:
            meter.charge("cube_state_op", 1)
        return _value_of(ref, self._recs.get(ref), asking_pid)

    def _changed(self, ref: CubeRef, rec: CubeRecord) -> None:
        """Push *ref*'s new values into every bound table."""
        for table in self._tables:
            matrix = table.matrix
            if matrix is not None:
                matrix.set_ref_value(ref, _value_of(ref, rec, table.pid))

    def cover(self, refs: Iterable[CubeRef], pid: int, meter=None) -> None:
        """Speculatively claim *refs* for processor *pid*'s best rectangle."""
        auditing = _audit.enabled()
        for ref in refs:
            if meter is not None:
                meter.charge("cube_state_op", 1)
            rec = self.record(ref)
            before = (rec.status, rec.owner)
            if rec.status is CubeStatus.DIVIDED:
                pass
            elif rec.status is CubeStatus.COVERED and rec.owner != pid:
                # Another processor speculated first; it keeps the claim.
                pass
            elif rec.status is CubeStatus.FREE:
                rec.status = CubeStatus.COVERED
                rec.trueval = len(ref[1])
                rec.owner = pid
                self._changed(ref, rec)
            if auditing:
                _audit.audit_cover_transition(ref, before, rec, pid)

    def release_owner(self, pid: int, meter=None) -> int:
        """Free every COVERED claim held by a crashed processor.

        A dead processor's speculative claims would otherwise zero out
        those cubes' values for every survivor forever (Table 5's
        COVERED/other-pid row).  Recovery releases them back to FREE so
        survivors can re-claim; DIVIDED cubes stay consumed.  Returns
        the number of claims released.
        """
        freed = 0
        for ref, rec in self._recs.items():
            if rec.status is CubeStatus.COVERED and rec.owner == pid:
                if meter is not None:
                    meter.charge("cube_state_op", 1)
                rec.status = CubeStatus.FREE
                rec.owner = -1
                freed += 1
                self._changed(ref, rec)
                if _audit.enabled():
                    _audit.audit_cube_record(ref, rec)
        return freed

    def divide(self, refs: Iterable[CubeRef], meter=None) -> None:
        """Mark *refs* permanently consumed by an applied extraction."""
        for ref in refs:
            if meter is not None:
                meter.charge("cube_state_op", 1)
            rec = self.record(ref)
            if rec.status is not CubeStatus.DIVIDED:
                rec.status = CubeStatus.DIVIDED
                rec.trueval = 0
                self._changed(ref, rec)
            if _audit.enabled():
                _audit.audit_cube_record(ref, rec)

    def detach(self) -> None:
        """Unbind every table.  A bound table and its matrix refer to
        each other, so without this they (and the store) outlive their
        cycle until the cyclic garbage collector finds them."""
        for table in self._tables:
            table.matrix = None
        self._tables.clear()

    def __len__(self) -> int:
        return len(self._recs)


class CubeStateValues:
    """Processor *pid*'s Table 5 view of *store*, kept as a live table.

    Called as a value function, ``(node, cube) -> value``, it asks the
    store without charging.  :meth:`prepare` binds it to a KC matrix's
    value table (:meth:`~repro.rectangles.kcmatrix.KCMatrix.bind_values`),
    which values every cell once; from then on the store's transitions
    patch the cells whose value they change, and a ping-pong search
    given this object as ``value_fn`` reads the patched table and keeps
    ascent records on it.
    """

    def __init__(self, store: CubeStateStore, pid: int) -> None:
        self.store = store
        self.pid = pid
        self.matrix = None  # the bound KCMatrix
        store._tables.append(self)

    def __call__(self, node: str, cube: Cube) -> int:
        return self.store.value((node, cube), self.pid)

    def prepare(self, matrix, meter=None) -> None:
        """Make *matrix* hold this view, then charge one
        ``cube_state_op`` per live cell: the reads a search of the whole
        matrix makes, as if it asked the store cell by cell.  Under
        ``REPRO_CHECK=1`` the whole store is checked first."""
        if _audit.enabled():
            _audit.audit_store(matrix)
        if matrix is not self.matrix:
            matrix.bind_values(self)
            self.matrix = matrix
        if meter is not None and matrix.num_entries:
            meter.charge("cube_state_op", matrix.num_entries)
