"""Request parsing, canonical keys, and result documents."""

import pytest

from repro.circuits import load_circuit
from repro.serve.protocol import (
    BadRequest,
    job_cache_key,
    parse_job_request,
)
from repro.service.cache import canonical_job_key


def test_minimal_request_fills_defaults():
    spec = parse_job_request({"circuit": "example"})
    assert spec["circuit"] == "example"
    assert spec["eqn"] is None
    assert spec["algorithm"] == "sequential"
    assert spec["procs"] == 4
    assert spec["searcher"] == "pingpong"
    assert spec["tenant"] == "default"
    assert spec["wait"] is True
    assert spec["include_network"] is False


def test_inline_eqn_request():
    spec = parse_job_request({"eqn": "f = a b + c;", "algorithm": "lshaped",
                              "procs": 2, "tenant": "t1"})
    assert spec["eqn"] == "f = a b + c;"
    assert spec["circuit"] is None
    assert spec["procs"] == 2


@pytest.mark.parametrize("body", [
    None,
    [],
    {},                                      # neither circuit nor eqn
    {"circuit": "example", "eqn": "f=a;"},   # both
    {"circuit": 7},
    {"circuit": "example", "algorithm": "quantum"},
    {"circuit": "example", "searcher": "magic"},
    {"circuit": "example", "procs": 0},
    {"circuit": "example", "procs": True},
    {"circuit": "example", "scale": -1},
    {"circuit": "example", "node_budget": 0},
    {"circuit": "example", "params": "not-a-dict"},
    {"circuit": "example", "tenant": ""},
])
def test_bad_requests_rejected(body):
    with pytest.raises(BadRequest):
        parse_job_request(body)


def test_job_cache_key_matches_engine_digest():
    # The serving tier and the in-process engine cache must agree on
    # what "the same job" means, or the tiers stop composing.
    network = load_circuit("example")
    spec = parse_job_request(
        {"circuit": "example", "algorithm": "lshaped", "procs": 2}
    )
    assert job_cache_key(spec, network) == canonical_job_key(
        network, "lshaped", 2, params={}, searcher="pingpong",
        node_budget=None,
    )


def test_job_cache_key_ignores_serving_only_fields():
    network = load_circuit("example")
    base = parse_job_request({"circuit": "example"})
    noisy = parse_job_request(
        {"circuit": "example", "tenant": "other", "wait": False,
         "include_network": True}
    )
    assert job_cache_key(base, network) == job_cache_key(noisy, network)


class TestClassField:
    """'class' is fixed sugar for one explicit (algorithm, searcher)."""

    @pytest.mark.parametrize("klass,searcher", [
        ("latency", "pingpong"), ("quality", "exhaustive"),
    ])
    def test_class_maps_to_explicit_spelling(self, klass, searcher):
        spec = parse_job_request({"circuit": "example", "class": klass})
        explicit = parse_job_request({
            "circuit": "example", "algorithm": "sequential",
            "searcher": searcher,
        })
        assert spec == explicit
        network = load_circuit("example")
        assert job_cache_key(spec, network) == job_cache_key(explicit, network)

    def test_consistent_restatement_is_allowed(self):
        spec = parse_job_request({
            "circuit": "example",
            "class": "quality",
            "algorithm": "sequential",
            "searcher": "exhaustive",
        })
        assert (spec["algorithm"], spec["searcher"]) == ("sequential", "exhaustive")

    def test_unknown_class_rejected(self):
        with pytest.raises(BadRequest, match="unknown class 'cheapest'"):
            parse_job_request({"circuit": "example", "class": "cheapest"})
        with pytest.raises(BadRequest, match="unknown class"):
            parse_job_request({"circuit": "example", "class": ["latency"]})

    def test_conflicting_algorithm_rejected(self):
        with pytest.raises(BadRequest, match="conflicts with explicit algorithm"):
            parse_job_request({
                "circuit": "example", "class": "quality", "algorithm": "lshaped",
            })

    def test_conflicting_searcher_rejected(self):
        with pytest.raises(BadRequest, match="conflicts with explicit searcher"):
            parse_job_request({
                "circuit": "example", "class": "quality", "searcher": "pingpong",
            })

    @pytest.mark.parametrize("algorithm", ["portfolio:latency", "portfolio:quality"])
    def test_explicit_portfolio_algorithm_rejected(self, algorithm):
        with pytest.raises(BadRequest, match="unknown algorithm"):
            parse_job_request({"circuit": "example", "algorithm": algorithm})
