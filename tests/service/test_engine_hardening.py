"""Engine health: the counters the serving tier's ``/healthz`` shows."""

from repro.service import FactorizationEngine, FactorizationJob


class TestHealth:
    def test_health_counters_surface_failures(self):
        engine = FactorizationEngine()
        engine.execute(FactorizationJob(
            circuit="misex3", scale=0.1, searcher="exhaustive",
            node_budget=5, allow_degrade=False,
        ))
        engine.execute(FactorizationJob(
            circuit="misex3", scale=0.1, searcher="exhaustive", node_budget=5,
        ))
        assert engine.health()["counters"] == {
            "jobs_submitted": 2,
            "jobs_completed": 1,
            "jobs_failed": 1,
            "jobs_degraded": 1,
        }

    def test_health_has_no_cache_block(self):
        engine = FactorizationEngine()
        engine.execute(FactorizationJob(circuit="example"))
        assert "cache" not in engine.health()
