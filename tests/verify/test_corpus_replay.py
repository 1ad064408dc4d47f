"""Replay every checked-in fuzz repro (``tests/fuzz_corpus/``).

Each corpus entry records a network plus the path it once broke
(or a regression shape worth pinning).  Replaying asserts the recorded
coordinates pass all fuzz oracles — a repro added once stays fixed
forever.  Round-trip tests for save/load live here too.
"""

import json
import os

import pytest

from repro.verify.corpus import load_corpus, replay_entry, save_repro
from repro.verify.fuzz import FuzzFailure

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "fuzz_corpus")

_ENTRIES = load_corpus(CORPUS_DIR)


def test_corpus_is_seeded():
    assert len(_ENTRIES) >= 3


@pytest.mark.parametrize("entry", _ENTRIES, ids=lambda e: e.stem)
def test_replay(entry):
    outcome = replay_entry(entry)
    assert outcome is None, f"{entry.describe()} regressed: {outcome}"


class TestRoundTrip:
    def test_save_then_load_preserves_coordinates(self, tmp_path):
        failure = FuzzFailure(
            run=0, seed=17, family="dense", path="seq-pingpong",
            kind="equivalence", detail="outputs differ",
            eqn="INORDER = a b;\nOUTORDER = F;\nF = a*b;\n", shrunk=True,
        )
        eqn_path = save_repro(str(tmp_path), failure)
        assert os.path.exists(eqn_path)
        stem = os.path.basename(eqn_path)[:-len(".eqn")]
        assert stem == "dense_s17_seq-pingpong_equivalence"
        with open(os.path.join(str(tmp_path), stem + ".json")) as fh:
            assert "core" not in json.load(fh)
        (entry,) = load_corpus(str(tmp_path))
        assert entry.path == "seq-pingpong"
        assert entry.seed == 17
        assert entry.kind == "equivalence"
        assert sorted(entry.network.inputs) == ["a", "b"]

    def test_missing_directory_is_empty_corpus(self, tmp_path):
        assert load_corpus(str(tmp_path / "nope")) == []

    def test_stem_is_filesystem_safe(self, tmp_path):
        failure = FuzzFailure(
            run=0, seed=1, family="weird/family", path="seq pingpong",
            kind="lc-bound", detail="",
            eqn="INORDER = a;\nOUTORDER = F;\nF = a;\n",
        )
        eqn_path = save_repro(str(tmp_path), failure)
        base = os.path.basename(eqn_path)
        assert "/" not in base.replace(".eqn", "") and " " not in base


def test_legacy_core_key_is_ignored():
    # Written when the fuzzer crossed every path with two rectangle
    # cores; the file is kept byte-for-byte and replays on the one core.
    stem = "degenerate_s4_seq-pingpong_set_regression"
    with open(os.path.join(CORPUS_DIR, stem + ".json")) as fh:
        assert json.load(fh)["core"] == "set"
    (entry,) = [e for e in _ENTRIES if e.stem == stem]
    assert not hasattr(entry, "core")
    assert entry.path == "seq-pingpong"
    assert replay_entry(entry) is None


def test_fault_quality_entry_is_refused(tmp_path):
    # check_path applies no fault-quality oracle: replaying such an
    # entry would pass whatever the code does.
    failure = FuzzFailure(
        run=0, seed=0, family="dense", path="lshaped", kind="fault-quality",
        detail="post-recovery LC exceeds fault-free",
        eqn="INORDER = a b;\nOUTORDER = F;\nF = a*b;\n",
        fault_plan="crash:1@3", fault_seed=0,
    )
    save_repro(str(tmp_path), failure)
    (entry,) = load_corpus(str(tmp_path))
    with pytest.raises(ValueError, match="fault-quality entries cannot be replayed"):
        replay_entry(entry)
