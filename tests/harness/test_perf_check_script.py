"""``scripts/perf_check.py`` writes the committed file only for the full suite.

``benchmarks/results/BENCH_rectsearch.json`` holds full-suite rows; a
``--quick`` run without ``--out`` must leave it as it is.
"""

from __future__ import annotations

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
COMMITTED = ROOT / "benchmarks" / "results" / "BENCH_rectsearch.json"


def _script():
    spec = importlib.util.spec_from_file_location(
        "perf_check_script", ROOT / "scripts" / "perf_check.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_only_the_full_suite_defaults_to_the_committed_file():
    script = _script()
    assert script.default_out(quick=False) == COMMITTED
    assert script.default_out(quick=True) is None


def test_quick_run_without_out_writes_nothing(monkeypatch, tmp_path):
    script = _script()
    written = []
    monkeypatch.setattr(script, "run_perf_check", lambda quick: {"quick": quick})
    monkeypatch.setattr(script, "render_report", lambda report: "")
    monkeypatch.setattr(script, "write_report",
                        lambda report, path: written.append(path))
    assert script.main(["--quick"]) == 0
    assert written == []
    out = tmp_path / "quick.json"
    assert script.main(["--quick", "--out", str(out)]) == 0
    assert written == [out]
