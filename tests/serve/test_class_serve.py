"""Request classes over HTTP: ``class`` is its explicit spelling.

``class: latency`` is ``sequential``/``pingpong`` and ``class: quality``
is ``sequential``/``exhaustive`` — the same canonical key, so the same
cache entry and the same ``eqn``.  A quality request that overruns its
node budget degrades to ping-pong for that request only: a later
unconstrained request still gets the exhaustive answer.
"""

import asyncio

from repro.circuits import load_circuit
from repro.serve import Gateway, GatewayConfig
from repro.serve.httpio import http_json
from repro.serve.protocol import job_cache_key, parse_job_request

EQN = "INORDER = a b c;\nOUTORDER = f;\nf = a * b + a * c;\n"


async def _started(**kw):
    kw.setdefault("port", 0)
    kw.setdefault("workers", 1)
    gw = Gateway(GatewayConfig(**kw))
    await gw.start()
    assert await gw.wait_ready(15), "workers never became ready"
    return gw


async def _factor(gw, body):
    status, doc = await http_json("POST", gw.url + "/v1/factor", body)
    assert status == 200, doc
    assert doc["status"] == "done", doc
    return doc


def test_class_requests_share_the_explicit_cache_entry():
    base = {"circuit": "dalu", "scale": 0.1, "include_network": True}
    pairs = [
        # (first request, second request) — both orders are covered.
        (dict(base, **{"class": "latency"}),
         dict(base, algorithm="sequential", searcher="pingpong")),
        (dict(base, algorithm="sequential", searcher="exhaustive"),
         dict(base, **{"class": "quality"})),
    ]
    network = load_circuit("dalu", scale=0.1)
    for first, second in pairs:
        assert job_cache_key(parse_job_request(first), network) == \
            job_cache_key(parse_job_request(second), network)

    async def main():
        gw = await _started()
        try:
            for first, second in pairs:
                a = await _factor(gw, first)
                b = await _factor(gw, second)
                assert a["cache"] == "computed"
                assert b["cache"] == "gateway"
                assert a["result"]["eqn"] == b["result"]["eqn"]
                assert a["result"]["algorithm"] == "sequential"
                assert a["result"]["searcher"] == b["result"]["searcher"]
        finally:
            await gw.stop()

    asyncio.run(main())


def test_budgeted_quality_request_does_not_change_later_answers():
    # A node budget of 1 forces the exhaustive search over budget; the
    # engine degrades that request to ping-pong.  The unconstrained
    # request that follows is a different job and must get the
    # exhaustive literal count, not the degraded one.
    body = {"circuit": "ex1010", "scale": 0.05, "class": "quality"}

    async def main():
        gw = await _started()
        try:
            budgeted = await _factor(gw, dict(body, node_budget=1))
            assert budgeted["result"]["degraded"] is True
            assert budgeted["result"]["final_lc"] == 393

            free = await _factor(gw, body)
            assert free["result"]["degraded"] is False
            assert free["result"]["final_lc"] == 388
        finally:
            await gw.stop()

    asyncio.run(main())


def test_class_errors_over_http(tmp_path):
    netlist = tmp_path / "tiny.eqn"
    netlist.write_text(EQN)

    async def main():
        gw = await _started()
        try:
            for body, needle in [
                ({"circuit": "example", "class": "latency",
                  "algorithm": "lshaped"}, "conflicts"),
                # File-path circuits reject non-unit scale up front.
                ({"circuit": str(netlist), "scale": 0.5, "class": "latency"},
                 "scale=0.5"),
            ]:
                status, doc = await http_json(
                    "POST", gw.url + "/v1/factor", body)
                assert status == 400, (body, doc)
                assert needle in doc["error"]

            doc = await _factor(gw, {"circuit": str(netlist),
                                     "class": "latency"})
            assert doc["result"]["algorithm"] == "sequential"
            assert doc["result"]["searcher"] == "pingpong"
        finally:
            await gw.stop()

    asyncio.run(main())
