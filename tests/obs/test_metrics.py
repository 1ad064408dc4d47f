"""Bounded-histogram regression tests and the shared snapshot schema."""

import json
import sys

from repro.obs import SNAPSHOT_SCHEMA, snapshot
from repro.obs.metrics import (
    DEFAULT_HISTOGRAM_CAP,
    Histogram,
    MetricsRegistry,
)


class TestBoundedHistogram:
    def test_exact_until_cap(self):
        h = Histogram("t", cap=100)
        for i in range(100):
            h.observe(i)
        assert h.sample_size == 100
        assert h.count == 100
        assert h.percentile(0) == 0
        assert h.percentile(100) == 99

    def test_one_million_values_fixed_memory(self):
        """The old unbounded histogram kept a 1M-entry list here; the
        reservoir keeps the buffer at the cap while count/total/min/max
        (and hence mean) stay exact."""
        cap = 512
        h = Histogram("load", cap=cap)
        n = 1_000_000
        for i in range(n):
            h.observe(float(i % 1000))
        assert h.sample_size == cap                      # memory bound
        assert sys.getsizeof(h._samples) < 16 * cap + 256
        assert h.count == n                              # exact scalars
        assert h.total == sum(float(i % 1000) for i in range(1000)) * (n // 1000)
        summ = h.summary()
        assert summ["min"] == 0.0 and summ["max"] == 999.0
        assert summ["mean"] == h.total / n
        # The reservoir is a uniform sample of a uniform stream: its
        # median estimate cannot be wildly off.
        assert 300 <= summ["p50"] <= 700

    def test_reservoir_is_deterministic_per_name(self):
        def run(name):
            h = Histogram(name, cap=16)
            for i in range(10_000):
                h.observe(float(i))
            return h.summary()

        assert run("a") == run("a")
        # Different names seed different reservoirs (overwhelmingly).
        assert run("a")["p50"] != run("b")["p50"]

    def test_cap_validation(self):
        import pytest

        with pytest.raises(ValueError):
            Histogram("bad", cap=0)

    def test_registry_default_cap(self):
        reg = MetricsRegistry()
        assert reg.histogram("x").cap == DEFAULT_HISTOGRAM_CAP
        assert reg.histogram("y", cap=8).cap == 8
        # get-or-create: the first cap wins
        assert reg.histogram("y").cap == 8


class TestSnapshot:
    def test_unified_schema(self):
        from repro.obs.tracer import Tracer

        reg = MetricsRegistry()
        reg.inc("jobs", 3)
        tr = Tracer()
        with tr.span("phase-x", track=0, virtual_start=0.0) as sp:
            sp.set_virtual_end(4.0)
        snap = snapshot(registry=reg, tracer=tr)
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert snap["metrics"]["counters"]["jobs"] == 3
        assert set(snap) == {"schema", "metrics", "trace"}
        assert snap["trace"]["phases"]["phase-x"]["virtual"] == 4.0
        json.dumps(snap)  # must be serializable as-is

    def test_sections_are_optional(self):
        from repro.obs.tracer import use_tracer

        with use_tracer(None):
            snap = snapshot()
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert "metrics" not in snap and "trace" not in snap
