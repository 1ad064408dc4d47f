"""Engine hardening: path breakers, health/readiness, deadline unwinding.

These are the service-layer chaos guarantees: a path (algorithm ×
circuit) that keeps failing trips its breaker and is short-circuited to
the sequential fallback instead of re-paying its timeout; the health
document reflects breaker state; and a timed-out attempt is *cancelled*,
not leaked as a daemon thread running to completion.
"""

import threading
import time

import pytest

from repro.service import FactorizationEngine, FactorizationJob
from repro.service import engine as engine_mod
from repro.service.breaker import BreakerState


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    monkeypatch.setattr(engine_mod, "BACKOFF", 0.0)


@pytest.fixture
def breaker_threshold(monkeypatch):
    """Set ``BREAKER_THRESHOLD`` for engines made afterwards."""
    return lambda n: monkeypatch.setattr(engine_mod, "BREAKER_THRESHOLD", n)


def make_engine():
    return FactorizationEngine(workers=2)


def _failing_job(**kw):
    """A job whose only attempt always times out."""
    kw.setdefault("circuit", "seq")
    kw.setdefault("scale", 0.05)
    kw.setdefault("algorithm", "lshaped")
    kw.setdefault("procs", 2)
    kw.setdefault("deadline", 1e-6)
    kw.setdefault("allow_degrade", False)
    kw.setdefault("max_retries", 0)
    return FactorizationJob(**kw)


def _drain_job_attempt_threads(timeout=15.0):
    """Wait for every 'job-attempt' helper thread to unwind."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        lingering = [
            t for t in threading.enumerate()
            if t.name == "job-attempt" and t.is_alive()
        ]
        if not lingering:
            return []
        time.sleep(0.05)
    return lingering


class TestBreakers:
    def test_repeated_failures_open_the_path_breaker(self, breaker_threshold):
        breaker_threshold(2)
        engine = make_engine()
        for _ in range(2):
            res = engine.execute(_failing_job())
            assert not res.ok
        assert (
            engine.breakers.get("lshaped:seq").state == BreakerState.OPEN
        )
        assert engine.metrics.counter("breaker_opened").value == 1

    def test_open_breaker_short_circuits_to_sequential(self, breaker_threshold):
        breaker_threshold(2)
        engine = make_engine()
        for _ in range(2):
            engine.execute(_failing_job())
        res = engine.execute(
            FactorizationJob(
                circuit="seq", scale=0.05, algorithm="lshaped", procs=2
            )
        )
        assert res.ok and res.degraded
        assert res.algorithm == "sequential"
        assert res.attempts == 1  # no failed attempt: degraded up front
        assert engine.metrics.counter("breaker_short_circuits").value == 1

    def test_sequential_jobs_are_never_short_circuited(self):
        # The fallback path itself must stay reachable even if its own
        # breaker somehow tripped; otherwise a degraded job would loop.
        engine = make_engine()
        for _ in range(5):
            engine.breakers.get("sequential:example").record_failure()
        res = engine.execute(FactorizationJob(circuit="example"))
        assert res.ok and not res.degraded

    def test_success_on_another_path_leaves_breaker_open(self, breaker_threshold):
        breaker_threshold(1)
        engine = make_engine()
        engine.execute(_failing_job())
        res = engine.execute(FactorizationJob(circuit="example"))
        assert res.ok
        assert engine.breakers.get("lshaped:seq").state == BreakerState.OPEN


class TestHealth:
    def test_fresh_engine_is_ok_and_ready(self):
        engine = make_engine()
        doc = engine.health()
        assert doc["status"] == "ok"
        assert doc["ready"] is True
        assert doc["workers"] == 2
        assert doc["queue_depth"] == 0
        assert engine.ready()

    def test_one_open_path_reports_degraded_but_ready(self, breaker_threshold):
        breaker_threshold(1)
        engine = make_engine()
        engine.execute(_failing_job())
        engine.execute(FactorizationJob(circuit="example"))
        doc = engine.health()
        assert doc["status"] == "degraded"
        assert doc["open_paths"] == ["lshaped:seq"]
        assert engine.ready()

    def test_every_path_open_reports_failing_and_unready(self, breaker_threshold):
        breaker_threshold(1)
        engine = make_engine()
        engine.execute(_failing_job())
        doc = engine.health()
        assert doc["status"] == "failing"
        assert doc["ready"] is False
        assert not engine.ready()

    def test_health_counters_surface_failures(self, breaker_threshold):
        breaker_threshold(1)
        engine = make_engine()
        engine.execute(_failing_job())
        counters = engine.health()["counters"]
        assert counters["jobs_failed"] == 1
        assert counters["jobs_timeouts"] == 1
        assert counters["breaker_opened"] == 1

    def test_health_has_no_cache_block(self):
        engine = make_engine()
        engine.execute(FactorizationJob(circuit="example"))
        assert "cache" not in engine.health()

    def test_health_reports_pool_liveness(self):
        engine = make_engine()
        pool = engine.health()["pool"]
        assert pool == {"size": 2, "busy": 0, "alive": True}
        engine.execute(FactorizationJob(circuit="example"))
        assert engine.health()["pool"]["busy"] == 0  # back to idle


class TestDeadlineUnwinding:
    def test_timed_out_attempt_is_cancelled_not_leaked(self):
        engine = make_engine()
        res = engine.execute(_failing_job(circuit="dalu", scale=0.3))
        assert not res.ok
        assert "JobTimeout" in res.error
        lingering = _drain_job_attempt_threads()
        assert lingering == [], f"leaked attempt threads: {lingering}"
        # The helper thread confirms it unwound via the cancel scope.
        assert engine.metrics.counter("jobs_cancelled").value >= 1
