"""Differential fuzz driver: oracles, campaign bookkeeping, audits."""

import pytest

from repro.network.boolean_network import BooleanNetwork
from repro.verify import audit
from repro.verify.fuzz import FuzzConfig, check_path, run_fuzz
from repro.verify.paths import FactorPath, all_paths, get_path


def _tiny_network():
    net = BooleanNetwork("tiny")
    net.add_inputs(["a", "b", "c", "d"])
    net.add_node("F", "ac + ad + bc + bd")
    net.add_output("F")
    return net


class TestCheckPath:
    @pytest.mark.parametrize("path", all_paths(), ids=lambda p: p.name)
    def test_all_real_paths_pass(self, path):
        outcome, final = check_path(_tiny_network(), path)
        assert outcome is None
        assert final is not None and final <= 8

    def test_exception_is_a_finding(self):
        def boom(network):
            raise RuntimeError("kaput")

        outcome, final = check_path(
            _tiny_network(), FactorPath("boom", boom)
        )
        assert final is None
        assert outcome[0] == "exception" and "kaput" in outcome[1]

    def test_nonequivalent_result_is_a_finding(self):
        def drop_cube(network):
            out = network.copy()
            out.nodes["F"] = out.nodes["F"][:1]
            return out

        outcome, _ = check_path(
            _tiny_network(), FactorPath("dropper", drop_cube)
        )
        assert outcome[0] == "equivalence"

    def test_literal_growth_is_a_finding(self):
        def bloat(network):
            out = network.copy()
            # F + F is functionally identical but strictly bigger.
            out.nodes["F"] = out.nodes["F"] + out.nodes["F"][:1]
            return out

        outcome, _ = check_path(
            _tiny_network(), FactorPath("bloat", bloat)
        )
        # Either the SOP dedupes (no finding is impossible: nodes[] is
        # raw cube list here) — the grown literal count must be flagged.
        assert outcome[0] == "lc-bound"

    def test_lost_output_is_a_finding(self):
        def lose_output(network):
            out = network.copy()
            del out.nodes["F"]
            out.outputs.remove("F")
            return out

        outcome, _ = check_path(
            _tiny_network(), FactorPath("loser", lose_output)
        )
        assert outcome[0] in ("exception", "interface")


class TestRunFuzz:
    def test_clean_small_campaign(self):
        config = FuzzConfig(runs=3, seed=0)
        report = run_fuzz(config)
        assert report.ok
        assert report.runs == 3
        # One check per run per path: no other axis multiplies them.
        assert report.checks == 3 * len(all_paths())

    def test_path_filter(self):
        report = run_fuzz(FuzzConfig(runs=2, seed=5, paths=["seq-pingpong"]))
        assert report.ok and report.checks == 2

    def test_unknown_path_raises(self):
        with pytest.raises(ValueError, match="unknown factorization path"):
            run_fuzz(FuzzConfig(runs=1, paths=["nope"]))

    def test_audits_enabled_and_restored(self):
        prev = audit._enabled
        try:
            audit.set_audits(False)
            report = run_fuzz(
                FuzzConfig(runs=2, seed=0, audits=True,
                           paths=["seq-pingpong", "lshaped"])
            )
            assert report.ok
            assert audit._enabled is False  # restored after the campaign
        finally:
            audit.set_audits(prev)

    def test_progress_callback_sees_runs(self):
        lines = []
        run_fuzz(FuzzConfig(runs=2, seed=0, paths=["seq-pingpong"],
                            progress=lines.append))
        assert len(lines) == 2 and "family=" in lines[0]

    def test_report_render_mentions_counts(self):
        report = run_fuzz(FuzzConfig(runs=1, seed=0, paths=["seq-pingpong"]))
        text = report.render()
        assert "1 runs" in text and "0 failure(s)" in text


def test_unshrinkable_failure_is_not_marked_shrunk(tmp_path):
    """A find the shrink predicate cannot reproduce is written as found.

    ``check_path`` never returns ``fault-quality`` (that oracle lives in
    the chaos sweep), so the shrinker keeps the input and the corpus
    entry must say ``"shrunk": false``.
    """
    import json
    from pathlib import Path

    from repro.network.eqn import write_eqn
    from repro.verify.fuzz import FuzzFailure, _finalize_failure

    net = _tiny_network()
    failure = FuzzFailure(
        run=0, seed=0, family="dense", path="lshaped", kind="fault-quality",
        detail="post-recovery LC exceeds fault-free", eqn=write_eqn(net),
        fault_plan="crash:1@3", fault_seed=0,
    )
    config = FuzzConfig(shrink=True, repro_dir=str(tmp_path))
    _finalize_failure(failure, net, get_path("lshaped"), config)
    assert failure.shrunk is False
    assert failure.eqn == write_eqn(net)
    meta = json.loads(Path(failure.repro_file).with_suffix(".json").read_text())
    assert meta["shrunk"] is False


# Run 32 of ``repro fuzz --runs 40 --seed 100 --faults --check``.  The
# shrinker cannot reduce it, and its written .eqn does not reproduce it
# (re-read, the network's literal ids change and the fault-free run
# ends at LC 28), so the case is built from the generator here.
@pytest.mark.xfail(strict=True, reason=(
    "L-shaped crash recovery: processor 0 crashes while building its cycle-0 "
    "slab, so processor 1 searches that cycle alone, without processor 0's "
    "cube claims, and extracts the gain-1 single-row kernel 1 + x2 from u3, "
    "which the fault-free run never takes; the whole-matrix cycles after the "
    "reassignment then stop in a ping-pong local optimum at LC 31 against "
    "the fault-free 25"))
def test_lshaped_crash_in_first_slab_build_keeps_fault_quality():
    report = run_fuzz(FuzzConfig(
        runs=1, seed=132, family="dupcube", paths=["lshaped"],
        audits=True, faults=True, fault_seed=32,
    ))
    assert report.lc_by_path["lshaped"] == 25
    assert report.ok, report.render()
