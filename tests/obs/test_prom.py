"""Prometheus exposition tests: renderer output and the validator."""

from repro.obs.prom import render_prometheus, validate_prometheus_text

#: A representative gateway ``/metrics`` document (the JSON shape
#: ``Gateway.metrics_document`` produces).
DOC = {
    "gateway": {
        "counters": {
            "requests_total": 42,
            "results_ok": 40,
            "results_failed": 2,
            "requests_coalesced": 5,
        },
        "histograms": {
            "request_seconds": {
                "count": 40, "total": 12.0, "min": 0.05, "max": 1.5,
                "mean": 0.3, "p50": 0.2, "p95": 0.9,
            },
            "empty_seconds": {"count": 0},
        },
    },
    "latency": {"p50": 0.2, "p95": 0.9, "p99": 1.2},
    "cache": {"size": 3, "hits": 7, "misses": 2, "enabled": True},
    "disk_cache": {"entries": 5, "hits": 1},
    "workers": {
        "0": {"alive": True, "generation": 1, "crashes": 0},
        "1": {"alive": False, "generation": 3, "crashes": 2},
    },
    "rect_search": {"rect_search_nodes": 100, "rect_memo_hits": 4},
    "slo": {
        "paths": {
            "default/sequential": {
                "60s": {"error_burn": 0.0, "latency_burn": 0.5},
                "600s": {"error_burn": 0.1, "latency_burn": 0.2},
            },
        },
    },
    "cluster": {"counters": {"jobs_total": 10, "cache_hits": 4}},
}


def test_render_passes_the_validator():
    text = render_prometheus(DOC)
    assert validate_prometheus_text(text) == []


def test_render_families_and_naming():
    text = render_prometheus(DOC)
    assert "# TYPE repro_requests_total counter" in text
    assert "repro_requests_total 42" in text
    assert "# TYPE repro_request_seconds summary" in text
    assert 'repro_request_seconds{quantile="0.99"} 1.2' in text
    assert "repro_request_seconds_sum 12" in text
    assert "repro_request_seconds_count 40" in text
    assert "repro_empty_seconds" not in text  # zero-count stays silent
    assert 'repro_worker_alive{worker="1"} 0' in text
    assert 'repro_worker_crashes_detected_total{worker="1"} 2' in text
    assert ('repro_slo_latency_burn{algorithm="sequential",'
            'tenant="default",window="60s"} 0.5') in text
    assert "repro_cluster_jobs_total 10" in text
    # booleans are not numeric gauges
    assert "repro_gateway_cache_enabled" not in text


def test_label_values_are_escaped():
    doc = {
        "slo": {
            "paths": {
                'we"ird\\ten\nant/seq': {
                    "60s": {"error_burn": 1.0, "latency_burn": 0.0},
                },
            },
        },
    }
    text = render_prometheus(doc)
    assert validate_prometheus_text(text) == []
    assert '\\"' in text and "\\\\" in text and "\\n" in text


def test_render_empty_doc_is_still_valid_enough():
    text = render_prometheus({})
    # Nothing to expose: validator flags the absence, nothing else.
    assert validate_prometheus_text(text) == ["no metric families found"]


def test_validator_catches_sample_before_type():
    text = "repro_x_total 1\n# TYPE repro_x_total counter\n"
    problems = validate_prometheus_text(text)
    assert any("precedes its TYPE" in p for p in problems)


def test_validator_catches_counter_without_total_suffix():
    text = "# TYPE repro_x counter\nrepro_x 1\n"
    problems = validate_prometheus_text(text)
    assert any("_total" in p for p in problems)


def test_validator_catches_bad_values_and_duplicates():
    text = (
        "# TYPE repro_g gauge\n"
        "repro_g potato\n"
        'repro_g{a="1"} 2\n'
        'repro_g{a="1"} 3\n'
        "repro_g NaN\n"
    )
    problems = validate_prometheus_text(text)
    assert any("bad value 'potato'" in p for p in problems)
    assert any("duplicate sample" in p for p in problems)
    # NaN duplicates the bare-name 'potato' sample key but is a legal value
    assert not any("bad value 'NaN'" in p for p in problems)


def test_validator_catches_malformed_labels():
    text = '# TYPE repro_g gauge\nrepro_g{a="unterminated} 1\n'
    problems = validate_prometheus_text(text)
    assert any("malformed labels" in p for p in problems)


def test_validator_accepts_summary_suffixes():
    text = (
        "# TYPE repro_s summary\n"
        'repro_s{quantile="0.5"} 0.1\n'
        "repro_s_sum 1.5\n"
        "repro_s_count 10\n"
    )
    assert validate_prometheus_text(text) == []
