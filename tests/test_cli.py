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
        assert args.cache is False

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

    def test_factor_cached_roundtrip(self, capsys):
        from repro.service import get_default_engine, reset_default_engine

        reset_default_engine()
        try:
            assert main(["factor", "example", "--cache"]) == 0
            assert "cache        : miss" in capsys.readouterr().out
            assert main(["factor", "example", "--cache"]) == 0
            assert "cache        : hit" in capsys.readouterr().out
            assert get_default_engine().cache.hits == 1
        finally:
            reset_default_engine()

    def test_factor_cached_parallel_reports_speedup(self, capsys):
        from repro.service import reset_default_engine

        reset_default_engine()
        try:
            assert main([
                "factor", "dalu", "--scale", "0.03",
                "--algorithm", "lshaped", "--procs", "2", "--cache",
            ]) == 0
            out = capsys.readouterr().out
            assert "speedup" in out and "cache" in out
        finally:
            reset_default_engine()


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

    def test_json_manifest_with_repeat(self, tmp_path, capsys):
        import json

        manifest = tmp_path / "batch.json"
        manifest.write_text(json.dumps(self.MANIFEST))
        out_json = tmp_path / "out.json"
        assert main(["batch", str(manifest), "--repeat", "2",
                     "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "pass wall times" in out
        assert "cache_hits" in out
        payload = json.loads(out_json.read_text())
        assert len(payload["passes"]) == 2
        first, second = payload["passes"]
        assert all(r["status"] == "DONE" for r in second["results"])
        assert sum(r["cache_hit"] for r in first["results"]) == 0
        assert sum(r["cache_hit"] for r in second["results"]) == 5
        assert second["wall_time"] < first["wall_time"]

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


class TestPortfolioCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["portfolio", "example"])
        assert args.klass == "latency"
        assert args.procs == "2,4"
        assert args.scale == 1.0
        assert args.budget == 5_000_000
        assert not args.no_memo and args.memo_dir is None

    def test_json_race_reports_equivalent(self, capsys):
        import json

        code = main(["portfolio", "example", "--no-memo", "--json",
                     "--procs", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["class"] == "latency"
        assert doc["equivalent"] is True
        assert doc["memoized"] is False
        assert doc["final_lc"] <= doc["initial_lc"]
        won = [l for l in doc["lanes"] if l["status"] == "won"]
        assert len(won) == 1 and won[0]["lane"] == doc["winner"]

    def test_table_mode_prints_verdict(self, capsys):
        assert main(["portfolio", "example", "--no-memo",
                     "--procs", "2", "--class", "quality"]) == 0
        out = capsys.readouterr().out
        assert "Portfolio race" in out
        assert "winner" in out
        assert "verdict      : ok" in out

    def test_bad_procs_exits_2(self, capsys):
        assert main(["portfolio", "example", "--procs", "two"]) == 2
        assert "bad --procs" in capsys.readouterr().err

    def test_unknown_class_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["portfolio", "example", "--class", "cheapest"]
            )
        assert exc.value.code == 2
