import json

import pytest

from repro.service import (
    FactorizationEngine,
    FactorizationJob,
    JobStatus,
    get_default_engine,
    reset_default_engine,
)


def make_engine(**kw):
    kw.setdefault("workers", 2)
    kw.setdefault("backoff", 0.001)
    return FactorizationEngine(**kw)


class TestCacheIntegration:
    def test_second_execution_hits_cache(self):
        engine = make_engine()
        job1 = FactorizationJob(circuit="example")
        job2 = FactorizationJob(circuit="example")
        r1 = engine.execute(job1)
        r2 = engine.execute(job2)
        assert not r1.cache_hit and r2.cache_hit
        assert r1.final_lc == r2.final_lc
        assert engine.cache.hits == 1 and engine.cache.misses == 1

    def test_different_params_do_not_collide(self):
        engine = make_engine()
        r1 = engine.execute(FactorizationJob(circuit="example"))
        r2 = engine.execute(
            FactorizationJob(circuit="example", searcher="exhaustive")
        )
        assert not r2.cache_hit
        assert r1.final_lc is not None and r2.final_lc is not None

    def test_use_cache_false_never_hits(self):
        engine = make_engine(use_cache=False)
        engine.execute(FactorizationJob(circuit="example"))
        r2 = engine.execute(FactorizationJob(circuit="example"))
        assert not r2.cache_hit
        assert engine.cache.hits == 0

    def test_cached_payload_is_copied(self):
        engine = make_engine()
        r1 = engine.execute(
            FactorizationJob(circuit="dalu", algorithm="lshaped",
                             procs=2, scale=0.03)
        )
        r2 = engine.execute(
            FactorizationJob(circuit="dalu", algorithm="lshaped",
                             procs=2, scale=0.03)
        )
        assert r2.cache_hit
        r2.payload.sequential_time = 123.0
        assert r1.payload.sequential_time != 123.0


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
        assert [s.value for s in res.history] == [
            "PENDING", "RUNNING", "FAILED", "RETRYING", "RUNNING", "DONE",
        ]
        snap = engine.metrics.snapshot()["counters"]
        assert snap["jobs_budget_exceeded"] == 1
        assert snap["jobs_retries"] == 1
        assert snap["jobs_degraded"] == 1

    def test_deadline_timeout_degrades(self):
        engine = make_engine()
        job = FactorizationJob(
            circuit="seq", scale=0.05, searcher="exhaustive", deadline=1e-6,
        )
        res = engine.execute(job)
        assert res.ok and res.degraded
        assert JobStatus.RETRYING in res.history
        assert engine.metrics.counter("jobs_timeouts").value >= 1

    def test_replicated_falls_back_to_sequential(self):
        engine = make_engine()
        job = FactorizationJob(
            circuit="misex3", scale=0.2, algorithm="replicated",
            procs=2, node_budget=5,
        )
        res = engine.execute(job)
        assert res.ok and res.degraded
        assert res.algorithm == "sequential"

    def test_degrade_memo_skips_second_failure(self):
        engine = make_engine()
        job = FactorizationJob(
            circuit="misex3", scale=0.2, searcher="exhaustive", node_budget=5,
        )
        first = engine.execute(job)
        again = FactorizationJob(
            circuit="misex3", scale=0.2, searcher="exhaustive", node_budget=5,
        )
        second = engine.execute(again)
        assert second.ok and second.degraded
        assert second.attempts == 1          # no failed attempt this time
        assert second.cache_hit              # degraded result was cached
        assert second.final_lc == first.final_lc
        assert engine.metrics.counter("degrade_memo_hits").value == 1

    def test_no_degrade_when_disallowed(self):
        engine = make_engine()
        job = FactorizationJob(
            circuit="misex3", scale=0.2, searcher="exhaustive",
            node_budget=5, allow_degrade=False, max_retries=1,
        )
        res = engine.execute(job)
        assert not res.ok
        assert res.status is JobStatus.FAILED
        assert res.attempts == 2
        assert not res.degraded
        from repro.rectangles.search import BudgetExceeded

        assert isinstance(res.exception, BudgetExceeded)


class TestFailures:
    def test_unknown_circuit_fails_job_not_batch(self):
        engine = make_engine(max_retries=0)
        report = engine.run_batch([
            FactorizationJob(circuit="nope"),
            FactorizationJob(circuit="example"),
        ])
        by_circuit = {r.circuit: r for r in report.results}
        assert by_circuit["nope"].status is JobStatus.FAILED
        assert "unknown circuit" in by_circuit["nope"].error
        assert by_circuit["example"].ok

    def test_failed_result_serializes(self):
        engine = make_engine(max_retries=0)
        res = engine.execute(FactorizationJob(circuit="nope"))
        json.dumps(res.to_dict())
        assert res.to_dict()["status"] == "FAILED"


class TestBatch:
    def test_results_in_priority_order(self):
        engine = make_engine(workers=1)
        jobs = [
            FactorizationJob(circuit="example", priority=2),
            FactorizationJob(circuit="misex3", scale=0.1, priority=-1),
            FactorizationJob(circuit="example", priority=0),
        ]
        report = engine.run_batch(jobs)
        assert [r.circuit for r in report.results] == ["misex3", "example", "example"]

    def test_deterministic_under_concurrent_submission(self):
        specs = [
            ("example", "sequential", 1),
            ("dalu", "lshaped", 2),
            ("dalu", "independent", 2),
            ("misex3", "sequential", 1),
            ("dalu", "lshaped", 4),
        ]

        def run(workers, use_cache):
            engine = make_engine(workers=workers, use_cache=use_cache)
            jobs = [
                FactorizationJob(circuit=c, algorithm=a, procs=p, scale=0.03)
                for c, a, p in specs
            ]
            report = engine.run_batch(jobs)
            assert all(r.ok for r in report.results)
            return [(r.circuit, r.algorithm, r.procs, r.final_lc)
                    for r in report.results]

        serial = run(workers=1, use_cache=False)
        concurrent = run(workers=4, use_cache=False)
        cached = run(workers=4, use_cache=True)
        assert serial == concurrent == cached

    def test_second_batch_hits_cache_and_is_faster(self):
        engine = make_engine()
        jobs = lambda: [  # noqa: E731 - jobs are single-use
            FactorizationJob(circuit="dalu", algorithm="lshaped",
                             procs=2, scale=0.03),
            FactorizationJob(circuit="dalu", algorithm="independent",
                             procs=2, scale=0.03),
            FactorizationJob(circuit="example"),
        ]
        first = engine.run_batch(jobs())
        second = engine.run_batch(jobs())
        assert first.cache_hits == 0
        assert second.cache_hits == 3
        assert second.wall_time < first.wall_time
        assert [r.final_lc for r in first.results] == [
            r.final_lc for r in second.results
        ]

    def test_report_render_and_dict(self):
        engine = make_engine()
        report = engine.run_batch([FactorizationJob(circuit="example")])
        text = report.render()
        assert "example" in text and "DONE" in text
        json.dumps(report.to_dict())

    def test_metrics_snapshot_contents(self):
        # One worker runs the two identical jobs in turn, so the second
        # is answered by the first's cache entry; on two workers both
        # can miss while the first is still computing.
        engine = make_engine(workers=1)
        engine.run_batch([
            FactorizationJob(circuit="example"),
            FactorizationJob(circuit="example"),
        ])
        snap = engine.metrics.snapshot()
        counters = snap["counters"]
        assert counters["jobs_submitted"] == 2
        assert counters["jobs_completed"] == 2
        assert counters["cache_hits"] == 1
        assert counters["cache_misses"] == 1
        assert snap["histograms"]["job_seconds"]["count"] == 2
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


class TestDefaultEngine:
    def test_singleton_and_reset(self):
        reset_default_engine()
        assert get_default_engine(create=False) is None
        engine = get_default_engine()
        assert get_default_engine() is engine
        reset_default_engine()
        assert get_default_engine(create=False) is None
        # leave a fresh default for other tests
