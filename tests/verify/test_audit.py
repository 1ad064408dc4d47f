"""Invariant audits: clean structures pass, corruption raises, gating."""

import pytest

from repro.parallel.cubestate import CubeStateStore, CubeStatus
from repro.rectangles.kcmatrix import KCMatrix, LabelAllocator, RowInfo
from repro.verify import InvariantViolation, audit, set_audits


@pytest.fixture
def audits_on():
    prev = audit._enabled
    set_audits(True)
    yield
    set_audits(prev)


def _small_matrix() -> KCMatrix:
    mat = KCMatrix()
    alloc = LabelAllocator()
    mat.add_row(1, "F", (10,))
    mat.add_row(2, "F", (11,))
    mat.add_row(3, "G", ())
    c1 = mat.ensure_col((20,), alloc)
    c2 = mat.ensure_col((21, 22), alloc)
    for r in (1, 2, 3):
        mat.add_entry(r, c1)
    mat.add_entry(1, c2)
    return mat


class TestGating:
    def test_env_var_controls_default(self, monkeypatch):
        monkeypatch.setenv(audit.ENV_VAR, "1")
        set_audits(None)  # re-read the environment
        assert audit.enabled()
        monkeypatch.setenv(audit.ENV_VAR, "0")
        set_audits(None)
        assert not audit.enabled()

    def test_set_audits_overrides_env(self, monkeypatch):
        monkeypatch.setenv(audit.ENV_VAR, "0")
        set_audits(True)
        try:
            assert audit.enabled()
        finally:
            set_audits(None)

    def test_off_by_default_means_corruption_is_silent(self):
        prev = audit._enabled
        set_audits(False)
        try:
            mat = _small_matrix()
            mat.col_rows[:] = [0] * len(mat.col_rows)  # massive corruption
            mat.add_row(9, "H", ())  # mutator runs its audit only if enabled
        finally:
            set_audits(prev)


class TestKCMatrixAudits:
    def test_clean_matrix_passes(self, audits_on):
        mat = _small_matrix()  # every mutator self-audits on the way
        audit.audit_kcmatrix(mat)

    def test_mutators_audit_their_delta(self, audits_on):
        mat = _small_matrix()
        mat.remove_row(2)
        mat.remove_col(mat.col_of_cube[(21, 22)])
        audit.audit_kcmatrix(mat)

    @pytest.mark.parametrize(
        "corrupt, msg",
        [
            (lambda m: m.col_rows.__setitem__(0, 0), "adjacency"),
            (lambda m: m.entry_cubes.__setitem__(0, (99, 98, 97)), "cube"),
            (lambda m: m.col_of_cube.update({(77,): 12345}), "col_of_cube"),
            (lambda m: m.rows.update({555: RowInfo("F", (), 0)}), "row labels"),
        ],
    )
    def test_corruption_detected(self, corrupt, msg):
        mat = _small_matrix()
        corrupt(mat)
        with pytest.raises(InvariantViolation, match=msg):
            audit.audit_kcmatrix(mat)

    def test_bitview_parity_clean(self):
        mat = _small_matrix()
        audit.audit_store(mat)

    def test_bitview_parity_detects_stale_view(self):
        mat = _small_matrix()
        # The mutators write the store; a raw write to a label map does not.
        mat.rows[4] = RowInfo("G", (12,), len(mat.row_labels))
        with pytest.raises(InvariantViolation):
            audit.audit_store(mat)

    def test_bitview_detects_corrupted_masks(self):
        mat = _small_matrix()
        mat.row_cols[0] = 0
        with pytest.raises(InvariantViolation, match="mask"):
            audit.audit_store(mat)

    def test_mutation_audit_fires_at_the_faulty_operation(self, audits_on):
        mat = _small_matrix()
        # Sabotage the store, then perform the next mutation touching it:
        # the audit localizes the breach to that operation instead of
        # letting it surface later as a wrong factorization.
        c2 = mat.col_pos[mat.col_of_cube[(21, 22)]]
        mat.col_rows[c2] |= 1 << mat.rows[2].slot  # row 2 has no cell there
        with pytest.raises(InvariantViolation, match="still lists"):
            mat.remove_row(2)


class TestCubeStateAudits:
    def test_clean_protocol_run_passes(self, audits_on):
        store = CubeStateStore()
        refs = [("F", (1, 2)), ("F", (3,)), ("G", (4, 5, 6))]
        store.cover(refs, pid=0)
        store.release_owner(0)
        store.cover(refs[:1], pid=1)
        store.divide(refs[1:])
        audit.audit_cubestate(store)

    def test_foreign_claim_is_not_stolen(self, audits_on):
        store = CubeStateStore()
        ref = ("F", (1, 2))
        store.cover([ref], pid=0)
        store.cover([ref], pid=1)  # must silently lose, not steal
        assert store.record(ref).owner == 0
        assert store.value(ref, asking_pid=1) == 0

    def test_free_record_with_owner_flagged(self):
        store = CubeStateStore()
        ref = ("F", (1, 2))
        rec = store.record(ref)
        rec.owner = 3  # FREE cubes carry no owner
        with pytest.raises(InvariantViolation, match="FREE"):
            audit.audit_cubestate(store)

    def test_covered_record_with_wrong_value_flagged(self):
        store = CubeStateStore()
        ref = ("F", (1, 2))
        store.cover([ref], pid=0)
        store.record(ref).trueval = 99
        with pytest.raises(InvariantViolation, match="COVERED"):
            audit.audit_cubestate(store)

    def test_divided_record_with_value_flagged(self):
        store = CubeStateStore()
        ref = ("F", (1, 2))
        store.divide([ref])
        store.record(ref).trueval = 2
        with pytest.raises(InvariantViolation, match="DIVIDED"):
            audit.audit_cubestate(store)

    def test_double_cover_transition_flagged(self):
        store = CubeStateStore()
        ref = ("F", (1, 2))
        store.cover([ref], pid=0)
        rec = store.record(ref)
        rec.owner = 1  # simulate a protocol bug handing the claim over
        with pytest.raises(InvariantViolation, match="double cover"):
            audit.audit_cover_transition(ref, (CubeStatus.COVERED, 0), rec, 1)

    def test_resurrected_divided_cube_flagged(self):
        store = CubeStateStore()
        ref = ("F", (1, 2))
        store.cover([ref], pid=0)
        rec = store.record(ref)
        with pytest.raises(InvariantViolation, match="DIVIDED"):
            audit.audit_cover_transition(
                ref, (CubeStatus.DIVIDED, -1), rec, 0
            )
