"""``include_network`` is not part of a job's canonical key.

Requests with the same key share one result document — through the
gateway LRU, through coalescing onto an in-flight computation, and
through the disk cache — but only a request that asked for the network
gets it rendered (``eqn``).  A document without ``eqn`` therefore does
not answer a request for the network, and such a request never joins a
computation that will not render it.  These tests pin both orders: a
request with ``include_network`` that follows one without it, as a
cache hit and as a coalesce candidate.
"""

import asyncio

from repro.circuits import load_circuit
from repro.network.eqn import read_eqn
from repro.serve import Gateway, GatewayConfig
from repro.serve.diskcache import DiskCache
from repro.serve.httpio import http_json
from repro.serve.protocol import answers, job_cache_key, parse_job_request, response_document

PLAIN = {"circuit": "example", "algorithm": "sequential"}
WITH_NET = dict(PLAIN, include_network=True)


async def _started(**kw):
    kw.setdefault("port", 0)
    kw.setdefault("workers", 1)
    gw = Gateway(GatewayConfig(**kw))
    await gw.start()
    assert await gw.wait_ready(15), "workers never became ready"
    return gw


def _assert_network(result):
    assert "eqn" in result, result
    net = read_eqn(result["eqn"])
    assert net.literal_count() == result["final_lc"]


def test_cache_hit_after_plain_request_carries_network():
    async def main():
        gw = await _started()
        try:
            status, first = await http_json("POST", gw.url + "/v1/factor", PLAIN)
            assert status == 200 and first["cache"] == "computed"
            assert "eqn" not in first["result"]

            # The cached plain document cannot answer, and the worker
            # keeps no result cache of its own: it recomputes and
            # renders the network for this request.
            status, second = await http_json("POST", gw.url + "/v1/factor", WITH_NET)
            assert status == 200
            assert second["cache"] == "computed"
            _assert_network(second["result"])
            status, health = await http_json("GET", gw.url + "/healthz")
            assert status == 200
            assert "cache" not in health["workers"]["0"]["engine"]

            # A later plain request answers from the document that now
            # carries the network, without it.
            status, third = await http_json("POST", gw.url + "/v1/factor", PLAIN)
            assert third["cache"] == "gateway"
            assert "eqn" not in third["result"]
        finally:
            await gw.stop()

    asyncio.run(main())


def test_network_request_does_not_coalesce_onto_plain_leader():
    async def main():
        gw = await _started()
        try:
            # submit() dispatches synchronously, so the second request
            # sees the first one in flight before any answer can arrive.
            leader = gw.submit(dict(PLAIN))
            follower = gw.submit(dict(WITH_NET))
            assert not follower.coalesced
            await asyncio.wait_for(leader.done.wait(), 30)
            await asyncio.wait_for(follower.done.wait(), 30)
            assert leader.status == follower.status == "done"
            assert gw.metrics.snapshot()["counters"]["requests_dispatched"] == 2
            assert "eqn" not in leader.result
            _assert_network(follower.result)
        finally:
            await gw.stop()

    asyncio.run(main())


def test_coalesced_plain_follower_of_network_leader_gets_no_network():
    async def main():
        gw = await _started()
        try:
            leader = gw.submit(dict(WITH_NET))
            follower = gw.submit(dict(PLAIN))
            assert follower.coalesced
            await asyncio.wait_for(leader.done.wait(), 30)
            await asyncio.wait_for(follower.done.wait(), 30)
            assert gw.metrics.snapshot()["counters"]["requests_dispatched"] == 1
            _assert_network(leader.result)
            assert "eqn" not in follower.result
        finally:
            await gw.stop()

    asyncio.run(main())


def test_network_requests_coalesce_with_each_other():
    async def main():
        gw = await _started()
        try:
            leader = gw.submit(dict(PLAIN))
            first = gw.submit(dict(WITH_NET))
            second = gw.submit(dict(WITH_NET))
            assert second.coalesced
            for job in (leader, first, second):
                await asyncio.wait_for(job.done.wait(), 30)
            assert gw.metrics.snapshot()["counters"]["requests_dispatched"] == 2
            _assert_network(first.result)
            _assert_network(second.result)
        finally:
            await gw.stop()

    asyncio.run(main())


def test_disk_document_without_network_is_recomputed(tmp_path):
    # A document persisted for a request that did not ask for the network.
    key = job_cache_key(parse_job_request(PLAIN), load_circuit("example"))
    stale = {"circuit": "example", "algorithm": "sequential", "procs": 4,
             "searcher": "pingpong", "status": "done", "initial_lc": 33,
             "final_lc": 33, "degraded": False, "attempts": 1,
             "elapsed": 0.0}
    DiskCache(str(tmp_path)).put(key, stale)

    async def main():
        gw = await _started(cache_dir=str(tmp_path))
        try:
            status, doc = await http_json("POST", gw.url + "/v1/factor", PLAIN)
            assert status == 200 and doc["cache"] == "disk"

            status, doc = await http_json("POST", gw.url + "/v1/factor", WITH_NET)
            assert status == 200
            assert doc["cache"] == "computed"
            _assert_network(doc["result"])
        finally:
            await gw.stop()

    asyncio.run(main())


def test_answers_and_response_document():
    full = {"final_lc": 1, "eqn": "f = a;"}
    bare = {"final_lc": 1}
    want = parse_job_request(WITH_NET)
    plain = parse_job_request(PLAIN)
    assert answers(full, want) and answers(full, plain)
    assert answers(bare, plain) and not answers(bare, want)
    assert response_document(full, want) is full
    assert response_document(full, plain) == bare
    assert response_document(bare, plain) is bare
