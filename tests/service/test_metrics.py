import threading

from repro.obs.metrics import MetricsRegistry


class TestCounter:
    def test_inc(self):
        reg = MetricsRegistry()
        reg.inc("jobs")
        reg.inc("jobs", 4)
        assert reg.counter("jobs").value == 5

    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_thread_safety(self):
        reg = MetricsRegistry()

        def worker():
            for _ in range(1000):
                reg.inc("n")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("n").value == 8000


class TestHistogram:
    def test_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        summ = h.summary()
        assert summ["count"] == 4
        assert summ["min"] == 1.0
        assert summ["max"] == 4.0
        assert summ["mean"] == 2.5
        assert summ["total"] == 10.0

    def test_empty_summary(self):
        summ = MetricsRegistry().histogram("empty").summary()
        assert summ["count"] == 0
        assert summ["mean"] is None

    def test_percentile(self):
        reg = MetricsRegistry()
        h = reg.histogram("p")
        for v in range(101):
            h.observe(float(v))
        assert h.percentile(0) == 0.0
        assert h.percentile(50) == 50.0
        assert h.percentile(100) == 100.0
        assert MetricsRegistry().histogram("e").percentile(50) is None


class TestTimer:
    def test_timer_observes_into_histogram(self):
        reg = MetricsRegistry()
        with reg.timer("work") as t:
            pass
        assert t.elapsed is not None and t.elapsed >= 0.0
        assert reg.histogram("work_seconds").count == 1


class TestSnapshot:
    def test_snapshot_contents(self):
        reg = MetricsRegistry()
        reg.inc("a", 2)
        reg.histogram("h").observe(1.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 2}
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["histograms"]["h"]["total"] == 1.5

    def test_snapshot_is_json_serializable(self):
        import json

        reg = MetricsRegistry()
        reg.inc("a")
        reg.histogram("h").observe(0.25)
        json.dumps(reg.snapshot())

    def test_render_mentions_metrics(self):
        reg = MetricsRegistry()
        reg.inc("cache_hits", 3)
        reg.histogram("job_seconds").observe(0.5)
        text = reg.render()
        assert "cache_hits" in text
        assert "job_seconds" in text
