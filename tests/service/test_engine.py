import json

import pytest

from repro.service import FactorizationEngine, FactorizationJob, JobStatus
from repro.service import engine as engine_mod


def make_engine():
    return FactorizationEngine()


class TestNoMemo:
    def test_repeated_job_is_recomputed(self):
        engine = make_engine()
        r1 = engine.execute(FactorizationJob(circuit="example"))
        r2 = engine.execute(FactorizationJob(circuit="example"))
        assert r1.final_lc == r2.final_lc
        assert r1.payload is not r2.payload
        assert r1.payload.network is not r2.payload.network
        assert engine.metrics.counter("jobs_attempts").value == 2
        assert not hasattr(engine, "cache")

    def test_degradable_job_never_hashes_its_network(self, monkeypatch):
        # Repeats are answered in front of the engine (gateway LRU, disk
        # cache), which already hashed the request; the engine must not
        # pay for a second canonical digest per job.
        import repro.service.cache as cache_mod

        calls = []

        def no_digest(*args, **kwargs):
            calls.append(args)
            raise AssertionError("engine computed a canonical job key")

        monkeypatch.setattr(cache_mod, "canonical_job_key", no_digest)
        monkeypatch.setattr(engine_mod, "canonical_job_key", no_digest,
                            raising=False)
        engine = make_engine()
        job = FactorizationJob(
            circuit="misex3", scale=0.2, searcher="exhaustive", node_budget=5,
        )
        assert job.allow_degrade
        res = engine.execute(job)
        assert calls == []
        assert res.ok and res.degraded, res.error


class TestDegradation:
    def test_budget_exceeded_degrades_to_pingpong(self):
        engine = make_engine()
        job = FactorizationJob(
            circuit="misex3", scale=0.2, searcher="exhaustive", node_budget=5,
        )
        res = engine.execute(job)
        assert res.ok
        assert res.degraded
        assert res.attempts == 2
        assert res.status is JobStatus.DONE
        snap = engine.metrics.snapshot()["counters"]
        assert snap["jobs_budget_exceeded"] == 1
        assert snap["jobs_retries"] == 1
        assert snap["jobs_degraded"] == 1

    def test_replicated_falls_back_to_sequential(self):
        engine = make_engine()
        job = FactorizationJob(
            circuit="misex3", scale=0.2, algorithm="replicated",
            procs=2, node_budget=5,
        )
        res = engine.execute(job)
        assert res.ok and res.degraded
        assert res.algorithm == "sequential"

    def test_fallback_drops_params_only_replicated_takes(self):
        # kernel_extract takes no 'faults': the fallback must not pass it.
        engine = make_engine()
        job = FactorizationJob(
            circuit="misex3", scale=0.1, algorithm="replicated",
            procs=2, node_budget=5, params={"faults": None, "min_gain": 1},
        )
        res = engine.execute(job)
        assert res.status is JobStatus.DONE, res.error
        assert res.degraded and res.algorithm == "sequential"
        assert job.params == {"min_gain": 1}

    def test_repeated_degrading_job_fails_over_again(self):
        engine = make_engine()
        first = engine.execute(FactorizationJob(
            circuit="misex3", scale=0.2, searcher="exhaustive", node_budget=5,
        ))
        second = engine.execute(FactorizationJob(
            circuit="misex3", scale=0.2, searcher="exhaustive", node_budget=5,
        ))
        assert second.ok and second.degraded
        assert second.attempts == first.attempts == 2
        assert second.final_lc == first.final_lc
        counters = engine.metrics.snapshot()["counters"]
        assert counters["jobs_budget_exceeded"] == 2
        assert counters["jobs_degraded"] == 2

    def test_no_degrade_when_disallowed(self):
        engine = make_engine()
        job = FactorizationJob(
            circuit="misex3", scale=0.2, searcher="exhaustive",
            node_budget=5, allow_degrade=False,
        )
        res = engine.execute(job)
        assert not res.ok
        assert res.status is JobStatus.FAILED
        assert res.attempts == 1
        assert not res.degraded
        from repro.rectangles.search import BudgetExceeded

        assert isinstance(res.exception, BudgetExceeded)


class TestFailures:
    def test_unknown_circuit_fails_job_not_batch(self):
        engine = make_engine()
        report = engine.run_batch([
            FactorizationJob(circuit="nope"),
            FactorizationJob(circuit="example"),
        ])
        by_circuit = {r.circuit: r for r in report.results}
        assert by_circuit["nope"].status is JobStatus.FAILED
        assert by_circuit["nope"].attempts == 1
        assert "unknown circuit" in by_circuit["nope"].error
        assert by_circuit["example"].ok

    def test_failed_result_serializes(self):
        engine = make_engine()
        res = engine.execute(FactorizationJob(circuit="nope"))
        json.dumps(res.to_dict())
        assert res.to_dict()["status"] == "FAILED"


class TestBatch:
    def test_results_in_priority_order(self):
        engine = make_engine()
        jobs = [
            FactorizationJob(circuit="example", priority=2),
            FactorizationJob(circuit="misex3", scale=0.1, priority=-1),
            FactorizationJob(circuit="example", priority=0),
        ]
        report = engine.run_batch(jobs)
        assert [r.circuit for r in report.results] == ["misex3", "example", "example"]

    def test_priority_ties_keep_submission_order(self):
        engine = make_engine()
        jobs = [
            FactorizationJob(circuit="example", priority=p)
            for p in (1, 0, 1, 0, 0)
        ]
        report = engine.run_batch(jobs)
        assert [r.job_id for r in report.results] == [
            "job-0001", "job-0003", "job-0004", "job-0000", "job-0002",
        ]

    def test_report_render_and_dict(self):
        engine = make_engine()
        report = engine.run_batch([FactorizationJob(circuit="example")])
        text = report.render()
        assert "example" in text and "DONE" in text
        json.dumps(report.to_dict())

    def test_metrics_snapshot_contents(self):
        # Two identical jobs and one that degrades: every job is
        # attempted (nothing is memoized), and the degrading one pays
        # its failed attempt before the ping-pong retry.
        engine = make_engine()
        engine.run_batch([
            FactorizationJob(circuit="example"),
            FactorizationJob(circuit="example"),
            FactorizationJob(circuit="misex3", scale=0.2,
                             searcher="exhaustive", node_budget=5),
        ])
        snap = engine.metrics.snapshot()
        assert snap["counters"] == {
            "jobs_submitted": 3,
            "jobs_attempts": 4,
            "jobs_completed": 3,
            "jobs_failed_attempts": 1,
            "jobs_budget_exceeded": 1,
            "jobs_retries": 1,
            "jobs_degraded": 1,
        }
        assert snap["histograms"]["job_seconds"]["count"] == 3
        assert snap["histograms"]["batch_seconds"]["count"] == 1


class TestAlgorithms:
    @pytest.mark.parametrize("algorithm", ["independent", "lshaped", "replicated"])
    def test_parallel_payloads(self, algorithm):
        engine = make_engine()
        res = engine.execute(FactorizationJob(
            circuit="dalu", algorithm=algorithm, procs=2, scale=0.03,
        ))
        assert res.ok
        assert res.payload.final_lc <= res.payload.initial_lc
        assert res.payload.parallel_time > 0

    def test_baseline_payload(self):
        engine = make_engine()
        res = engine.execute(FactorizationJob(circuit="example",
                                              algorithm="baseline"))
        assert res.ok
        assert res.payload.time > 0
        assert res.payload.result.final_lc <= 33

    def test_sequential_payload_has_network(self):
        from repro.network.simulate import random_equivalence_check

        engine = make_engine()
        job = FactorizationJob(circuit="example")
        res = engine.execute(job)
        assert res.final_lc == res.payload.network.literal_count()
        assert random_equivalence_check(job.resolve_network(),
                                        res.payload.network)

