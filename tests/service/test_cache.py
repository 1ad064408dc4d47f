import pytest

from repro.network.boolean_network import BooleanNetwork
from repro.obs.metrics import MetricsRegistry
from repro.service.cache import (
    ResultCache,
    canonical_job_key,
    canonical_network_text,
)


def _net(order=("F", "G")):
    net = BooleanNetwork("n")
    net.add_inputs(list("abc"))
    exprs = {"F": "ab + ac", "G": "ab + bc"}
    for name in order:
        net.add_node(name, exprs[name])
    for name in sorted(order):
        net.add_output(name)
    return net


class TestCanonicalKey:
    def test_same_content_same_key(self):
        assert canonical_job_key(_net(), "lshaped", 4) == canonical_job_key(
            _net(), "lshaped", 4
        )

    def test_node_insertion_order_is_canonicalized(self):
        a, b = _net(("F", "G")), _net(("G", "F"))
        assert canonical_network_text(a) == canonical_network_text(b)
        assert canonical_job_key(a, "lshaped", 2) == canonical_job_key(b, "lshaped", 2)

    def test_network_name_ignored(self):
        a, b = _net(), _net()
        b.name = "other"
        assert canonical_job_key(a, "lshaped", 2) == canonical_job_key(b, "lshaped", 2)

    def test_algorithm_and_procs_distinguish(self):
        net = _net()
        keys = {
            canonical_job_key(net, "lshaped", 2),
            canonical_job_key(net, "lshaped", 4),
            canonical_job_key(net, "independent", 2),
        }
        assert len(keys) == 3

    def test_procs_ignored_for_sequential(self):
        net = _net()
        assert canonical_job_key(net, "sequential", 1) == canonical_job_key(
            net, "sequential", 8
        )

    def test_params_order_irrelevant(self):
        net = _net()
        k1 = canonical_job_key(net, "lshaped", 2, params={"seed": 1, "max_rounds": 4})
        k2 = canonical_job_key(net, "lshaped", 2, params={"max_rounds": 4, "seed": 1})
        assert k1 == k2

    def test_params_value_distinguishes(self):
        net = _net()
        assert canonical_job_key(
            net, "lshaped", 2, params={"seed": 1}
        ) != canonical_job_key(net, "lshaped", 2, params={"seed": 2})

    def test_searcher_and_budget_distinguish(self):
        net = _net()
        assert canonical_job_key(
            net, "sequential", 1, searcher="pingpong"
        ) != canonical_job_key(net, "sequential", 1, searcher="exhaustive")
        assert canonical_job_key(
            net, "sequential", 1, node_budget=10
        ) != canonical_job_key(net, "sequential", 1, node_budget=None)

    def test_different_logic_different_key(self):
        other = _net()
        other.set_expression("F", other.nodes["G"])
        assert canonical_job_key(_net(), "lshaped", 2) != canonical_job_key(
            other, "lshaped", 2
        )


class TestResultCache:
    def test_hit_miss_accounting(self):
        metrics = MetricsRegistry()
        cache = ResultCache(capacity=4, metrics=metrics)
        assert cache.get("k") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.hits == 1 and cache.misses == 1
        assert metrics.counter("cache_hits").value == 1
        assert metrics.counter("cache_misses").value == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # touch: "b" becomes least recently used
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_eviction_metric(self):
        metrics = MetricsRegistry()
        cache = ResultCache(capacity=1, metrics=metrics)
        cache.put("a", 1)
        cache.put("b", 2)
        assert metrics.counter("cache_evictions").value == 1

    def test_none_rejected(self):
        with pytest.raises(ValueError):
            ResultCache().put("k", None)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)

    def test_clear_and_stats(self):
        cache = ResultCache(capacity=8)
        cache.put("a", 1)
        assert len(cache) == 1
        stats = cache.stats()
        assert stats["size"] == 1 and stats["capacity"] == 8
        cache.clear()
        assert len(cache) == 0
