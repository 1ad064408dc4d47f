import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_factor_defaults(self):
        args = build_parser().parse_args(["factor", "example"])
        assert args.algorithm == "sequential"
        assert args.procs == 4
        assert not hasattr(args, "cache")

    def test_batch_has_no_cache_or_repeat_options(self, capsys):
        for flag in ("--cache", "--no-cache", "--repeat"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["batch", "m.json", flag])
            assert exc.value.code == 2
        capsys.readouterr()

    def test_batch_has_no_workers_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["batch", "m.json", "--workers", "2"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_list_circuits(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out.split()
        assert "example" in out
        assert "dalu" in out and "ex1010" in out

    def test_unknown_table_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run-table", "table99"])
        assert exc.value.code == 2
        assert "table99" in capsys.readouterr().err


class TestFactorCommand:
    def test_sequential_on_example(self, capsys):
        assert main(["factor", "example"]) == 0
        out = capsys.readouterr().out
        assert "33 ->" in out

    @pytest.mark.parametrize("alg", ["replicated", "independent", "lshaped"])
    def test_parallel_algorithms(self, alg, capsys):
        assert main(["factor", "example", "--algorithm", alg, "--procs", "2"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_writes_eqn(self, tmp_path, capsys):
        out_path = tmp_path / "out.eqn"
        assert main(["factor", "example", "--output", str(out_path)]) == 0
        from repro.network.eqn import load_eqn

        net = load_eqn(str(out_path))
        assert net.literal_count() <= 22

    def test_reads_eqn_file(self, tmp_path, eq1_network, capsys):
        from repro.network.eqn import save_eqn

        p = tmp_path / "in.eqn"
        save_eqn(eq1_network, str(p))
        assert main(["factor", str(p)]) == 0

    def test_reads_pla_file(self, tmp_path, capsys):
        p = tmp_path / "in.pla"
        p.write_text(".i 3\n.o 1\n.p 2\n110 1\n011 1\n.e\n")
        assert main(["factor", str(p)]) == 0

    def test_unknown_circuit_exits_2_with_choices(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["factor", "not-a-circuit"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "not-a-circuit" in err
        assert "dalu" in err and "example" in err


class TestInfoCommand:
    def test_info_example(self, capsys):
        assert main(["info", "example"]) == 0
        out = capsys.readouterr().out
        assert "literals: 33" in out
        assert "KC matrix" in out

    def test_info_suite_scaled(self, capsys):
        assert main(["info", "dalu", "--scale", "0.05"]) == 0
        assert "nodes" in capsys.readouterr().out


class TestCompareCommand:
    def test_compare_runs(self, capsys, tmp_path):
        out_json = tmp_path / "cmp.json"
        assert main([
            "compare", "dalu", "--scale", "0.05", "--procs", "2",
            "--json", str(out_json),
        ]) == 0
        out = capsys.readouterr().out
        assert "lshaped" in out
        import json

        records = json.loads(out_json.read_text())
        assert any(r["algorithm"] == "independent" for r in records)
        for r in records:
            assert r["final_lc"] <= r["initial_lc"]


class TestStatsCommand:
    def test_stats(self, capsys):
        assert main(["stats", "example"]) == 0
        assert "depth=1" in capsys.readouterr().out


class TestBatchCommand:
    MANIFEST = {
        "jobs": [
            {"circuit": "example", "algorithm": "sequential"},
            {"circuit": "dalu", "algorithm": "lshaped", "procs": 2,
             "scale": 0.03},
            {"circuit": "dalu", "algorithm": "independent", "procs": 2,
             "scale": 0.03},
            {"circuit": "misex3", "algorithm": "sequential", "scale": 0.1},
            {"circuit": "example", "algorithm": "sequential",
             "searcher": "exhaustive"},
        ]
    }

    def test_json_manifest(self, tmp_path, capsys):
        import json

        manifest = tmp_path / "batch.json"
        manifest.write_text(json.dumps(self.MANIFEST))
        out_json = tmp_path / "out.json"
        assert main(["batch", str(manifest), "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "5/5 done" in out
        assert "jobs_completed" in out
        payload = json.loads(out_json.read_text())
        assert set(payload) == {"results", "wall_time", "metrics"}
        assert [r["status"] for r in payload["results"]] == ["DONE"] * 5
        assert all("cache_hit" not in r for r in payload["results"])
        assert payload["metrics"]["counters"]["jobs_completed"] == 5

    def test_line_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "batch.txt"
        manifest.write_text(
            "# circuit algorithm options\n"
            "example sequential\n"
            "dalu lshaped procs=2 scale=0.03\n"
        )
        assert main(["batch", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "2/2 done" in out

    def test_degrading_job_completes(self, tmp_path, capsys):
        manifest = tmp_path / "batch.txt"
        manifest.write_text(
            "misex3 sequential scale=0.1 searcher=exhaustive node_budget=5\n"
            "example sequential\n"
        )
        assert main(["batch", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "DONE*" in out
        assert "jobs_degraded" in out

    def test_failing_job_sets_exit_code(self, tmp_path, capsys):
        manifest = tmp_path / "batch.txt"
        manifest.write_text("no-such-circuit sequential\nexample sequential\n")
        assert main(["batch", str(manifest)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_missing_manifest(self, capsys):
        assert main(["batch", "/does/not/exist.json"]) == 2
        assert "cannot read manifest" in capsys.readouterr().err

    def test_empty_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "empty.txt"
        manifest.write_text("# nothing here\n")
        assert main(["batch", str(manifest)]) == 2
        assert "no jobs" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path):
        manifest = tmp_path / "bad.txt"
        manifest.write_text("onlyonetoken\n")
        with pytest.raises(SystemExit):
            main(["batch", str(manifest)])

    #: (job_id, circuit, algorithm, status, attempts, degraded,
    #: initial_lc, final_lc) per result of examples/batch_manifest.json,
    #: in run order (priority first).  Only the budgeted ex1010 job
    #: blows its node budget; it degrades to ping-pong on its second
    #: and last attempt.
    EXAMPLE_RESULTS = [
        ("job-0005", "ex1010", "sequential", "DONE", 2, True, 482, 274),
        ("job-0000", "dalu", "lshaped", "DONE", 1, False, 199, 128),
        ("job-0001", "dalu", "independent", "DONE", 1, False, 199, 136),
        ("job-0002", "seq", "lshaped", "DONE", 1, False, 420, 284),
        ("job-0003", "misex3", "sequential", "DONE", 1, False, 358, 228),
        ("job-0004", "example", "sequential", "DONE", 1, False, 33, 21),
    ]

    def test_example_manifest_results_pinned(self, tmp_path, capsys):
        import json
        import pathlib

        path = pathlib.Path(__file__).parent.parent / "examples" / "batch_manifest.json"
        out_json = tmp_path / "out.json"
        assert main(["batch", str(path), "--json", str(out_json)]) == 0
        capsys.readouterr()
        results = json.loads(out_json.read_text())["results"]
        assert [
            (r["job_id"], r["circuit"], r["algorithm"], r["status"],
             r["attempts"], r["degraded"], r["initial_lc"], r["final_lc"])
            for r in results
        ] == self.EXAMPLE_RESULTS

    def test_undegradable_job_fails_after_one_attempt(self, tmp_path, capsys):
        import json

        manifest = tmp_path / "batch.json"
        manifest.write_text(json.dumps({"jobs": [
            {"circuit": "misex3", "scale": 0.1, "searcher": "exhaustive",
             "node_budget": 5, "allow_degrade": False},
        ]}))
        out_json = tmp_path / "out.json"
        assert main(["batch", str(manifest), "--json", str(out_json)]) == 1
        capsys.readouterr()
        [result] = json.loads(out_json.read_text())["results"]
        assert result["status"] == "FAILED"
        assert result["attempts"] == 1
        assert not result["degraded"]
        assert result["error"].startswith("BudgetExceeded")

    def test_example_manifest_parses(self):
        import json
        import pathlib

        path = pathlib.Path(__file__).parent.parent / "examples" / "batch_manifest.json"
        from repro.cli import _manifest_jobs, _parse_manifest_entries

        entries = _parse_manifest_entries(path.read_text())
        jobs = _manifest_jobs(entries, default_scale=1.0)
        assert len(jobs) >= 5
        assert json.loads(path.read_text())  # stays valid JSON


class TestRunTableCommand:
    def test_table4_tiny(self, capsys):
        # miniature scale keeps CI fast; full scale lives in benchmarks/
        assert main(["run-table", "eq3", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Eq. 3" in out


class TestFuzzCommand:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["fuzz", "--runs", "3", "--seed", "0", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "3 runs" in out and "0 failure(s)" in out

    def test_filters_and_check(self, capsys):
        assert main([
            "fuzz", "--runs", "2", "--seed", "1", "--quiet", "--check",
            "--paths", "seq-pingpong",
        ]) == 0
        assert "2 path checks" in capsys.readouterr().out

    def test_progress_lines_by_default(self, capsys):
        assert main(["fuzz", "--runs", "1",
                     "--paths", "seq-pingpong"]) == 0
        assert "family=" in capsys.readouterr().out

    def test_unknown_path_exits_2(self, capsys):
        assert main(["fuzz", "--runs", "1", "--paths", "bogus"]) == 2
        assert "unknown factorization path" in capsys.readouterr().err

    def test_repro_dir_implies_shrink(self, tmp_path):
        args = build_parser().parse_args(
            ["fuzz", "--repro-dir", str(tmp_path)]
        )
        assert args.repro_dir == str(tmp_path) and not args.shrink


class TestClosedStdout:
    """A reader that closes stdout early (``| head -1``) ends the CLI
    quietly, without a ``BrokenPipeError`` traceback."""

    @pytest.mark.parametrize("argv", [
        ["--list"],
        ["batch", "examples/batch_manifest.json"],
    ])
    def test_no_traceback(self, argv):
        import os
        import pathlib
        import subprocess
        import sys

        root = pathlib.Path(__file__).resolve().parent.parent
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to stdout now fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
                timeout=600,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "BrokenPipeError" not in proc.stderr, proc.stderr
