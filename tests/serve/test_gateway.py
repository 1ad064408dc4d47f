"""End-to-end gateway tests: real worker processes, real HTTP.

pytest-asyncio is not available, so every test wraps its async body in
``asyncio.run``.  The tests favor one gateway boot per scenario and the
tiny built-in ``example`` circuit wherever latency does not matter; the
coalescing/crash scenarios need a job slow enough to overlap requests,
so they reuse the bench's generated probe circuit.
"""

import asyncio
import os
import signal

import pytest

from repro.serve import (
    Gateway,
    GatewayConfig,
    job_cache_key,
    parse_job_request,
    probe_circuit_eqn,
)
from repro.serve.httpio import http_json, http_json_lines, http_text


def _config(**kw):
    kw.setdefault("port", 0)
    kw.setdefault("workers", 2)
    return GatewayConfig(**kw)


async def _started(**kw):
    gw = Gateway(_config(**kw))
    await gw.start()
    assert await gw.wait_ready(15), "workers never became ready"
    return gw


def test_factor_roundtrip_and_gateway_cache():
    async def main():
        gw = await _started()
        try:
            body = {"circuit": "example", "algorithm": "sequential"}
            status, doc = await http_json("POST", gw.url + "/v1/factor", body)
            assert status == 200
            assert doc["status"] == "done"
            result = doc["result"]
            assert result["final_lc"] < result["initial_lc"]
            assert doc["cache"] == "computed"

            status, doc = await http_json("POST", gw.url + "/v1/factor", body)
            assert status == 200
            assert doc["cache"] == "gateway"  # answered without dispatch

            counters = gw.metrics.snapshot()["counters"]
            assert counters["requests_dispatched"] == 1
            assert counters["results_from_gateway"] == 1
        finally:
            await gw.stop()

    asyncio.run(main())


def test_job_status_endpoint_and_watch_stream():
    async def main():
        gw = await _started(workers=1)
        try:
            body = {"circuit": "example", "wait": False}
            status, doc = await http_json("POST", gw.url + "/v1/factor", body)
            assert status == 202
            job_id = doc["job_id"]
            assert doc["status"] in ("pending", "done")

            status, lines = await http_json_lines(
                "GET", gw.url + f"/v1/jobs/{job_id}?watch=1"
            )
            assert status == 200
            assert lines, "watch stream sent nothing"
            assert lines[-1]["status"] == "done"
            assert lines[-1]["result"]["final_lc"] > 0

            status, doc = await http_json("GET", gw.url + f"/v1/jobs/{job_id}")
            assert status == 200 and doc["status"] == "done"

            status, _ = await http_json("GET", gw.url + "/v1/jobs/nope")
            assert status == 404
        finally:
            await gw.stop()

    asyncio.run(main())


def test_identical_concurrent_requests_coalesce_to_one_computation():
    async def main():
        gw = await _started()
        try:
            body = {"eqn": probe_circuit_eqn(11), "algorithm": "sequential"}
            results = await asyncio.gather(*[
                http_json("POST", gw.url + "/v1/factor", dict(body))
                for _ in range(5)
            ])
            assert [s for s, _ in results] == [200] * 5
            answers = {d["result"]["final_lc"] for _, d in results}
            assert len(answers) == 1  # every waiter got the same answer

            counters = gw.metrics.snapshot()["counters"]
            assert counters["requests_dispatched"] == 1
            assert counters["requests_coalesced"] == 4
            assert sum(d["coalesced"] for _, d in results) == 4
        finally:
            await gw.stop()

    asyncio.run(main())


def _same_parity_bodies(gw, count):
    """*count* distinct probe requests whose canonical keys share the
    parity of their top 64 bits, so a ``key % 2`` content-hash router
    would pin all of them to one of two workers."""
    by_parity = {0: [], 1: []}
    for seed in range(100, 140):
        body = {"eqn": probe_circuit_eqn(seed), "algorithm": "sequential",
                "wait": False}
        spec = parse_job_request(body)
        key = job_cache_key(spec, gw._resolve_network(spec))
        bucket = by_parity[int(key[:16], 16) % 2]
        bucket.append(body)
        if len(bucket) == count:
            return bucket
    raise AssertionError("no colliding probe keys")


def test_cold_requests_go_to_the_least_loaded_worker():
    async def main():
        gw = await _started()
        try:
            first, second, third = _same_parity_bodies(gw, 3)
            # submit() dispatches synchronously, so no result can come
            # back between these calls and the loads are exact.
            jobs = [gw.submit(first), gw.submit(second)]
            assert [len(gw._outstanding[w]) for w in (0, 1)] == [1, 1]
            jobs.append(gw.submit(third))   # tie: the lower id wins
            assert [len(gw._outstanding[w]) for w in (0, 1)] == [2, 1]
            await asyncio.wait_for(
                asyncio.gather(*[job.done.wait() for job in jobs]), 60)
            assert [job.status for job in jobs] == ["done"] * 3
            assert [job.worker for job in jobs] == [0, 1, 0]
        finally:
            await gw.stop()

    asyncio.run(main())


def test_worker_queue_wait_is_recorded_per_computation():
    async def main():
        gw = await _started()
        try:
            docs = []
            for algorithm in ("sequential", "lshaped", "independent"):
                status, doc = await http_json(
                    "POST", gw.url + "/v1/factor",
                    {"circuit": "example", "algorithm": algorithm})
                assert status == 200 and doc["cache"] == "computed"
                docs.append(doc)

            status, metrics = await http_json("GET", gw.url + "/metrics")
            assert status == 200
            queue = metrics["gateway"]["histograms"]["worker_queue_seconds"]
            assert queue["count"] == 3
            assert queue["min"] >= 0.0
            status, text = await http_text(
                "GET", gw.url + "/metrics?format=prom")
            assert status == 200 and "worker_queue_seconds" in text

            trace = gw.job_trace(docs[0]["job_id"])
            root = next(sp for sp in trace["spans"]
                        if sp["name"] == "worker-factor")
            assert root["attrs"]["queued_s"] >= 0.0
        finally:
            await gw.stop()

    asyncio.run(main())


def test_rate_limit_is_per_tenant():
    async def main():
        gw = await _started(workers=1, rate_limit=1.0, burst=1.0)
        try:
            a = {"circuit": "example", "tenant": "a", "wait": False}
            status, _ = await http_json("POST", gw.url + "/v1/factor", a)
            assert status in (200, 202)
            status, doc = await http_json("POST", gw.url + "/v1/factor", a)
            assert status == 429
            assert doc["error"] == "rate_limited"
            assert doc["tenant"] == "a"
            assert doc["retry_after"] > 0

            b = {"circuit": "example", "tenant": "b", "wait": False}
            status, _ = await http_json("POST", gw.url + "/v1/factor", b)
            assert status in (200, 202)  # b's bucket is untouched

            counters = gw.metrics.snapshot()["counters"]
            assert counters["requests_rate_limited"] == 1
        finally:
            await gw.stop()

    asyncio.run(main())


def test_admission_control_rejects_when_inflight_is_full():
    async def main():
        gw = await _started(workers=1, max_inflight=1)
        try:
            slow = {"eqn": probe_circuit_eqn(12), "wait": False}
            status, doc = await http_json("POST", gw.url + "/v1/factor", slow)
            assert status == 202
            job_id = doc["job_id"]

            other = {"circuit": "example", "wait": False}
            status, doc = await http_json("POST", gw.url + "/v1/factor", other)
            assert status == 429
            assert doc["error"] == "overloaded"
            assert gw.metrics.snapshot()["counters"]["requests_overloaded"] == 1

            # drain the slow job so shutdown has nothing in flight
            _, lines = await http_json_lines(
                "GET", gw.url + f"/v1/jobs/{job_id}?watch=1"
            )
            assert lines[-1]["status"] == "done"
        finally:
            await gw.stop()

    asyncio.run(main())


def test_worker_crash_respawns_and_request_still_completes():
    async def main():
        gw = await _started()
        try:
            body = {"eqn": probe_circuit_eqn(13), "algorithm": "sequential"}
            task = asyncio.ensure_future(
                http_json("POST", gw.url + "/v1/factor", body, timeout=60)
            )
            for _ in range(2000):  # wait until the job is on a worker
                await asyncio.sleep(0.001)
                busy = [h for h in gw._handles if gw._outstanding[h.worker_id]]
                if busy:
                    break
            assert busy, "request never reached a worker"
            os.kill(busy[0].process.pid, signal.SIGKILL)

            status, doc = await task
            assert status == 200
            assert doc["status"] == "done"

            counters = gw.metrics.snapshot()["counters"]
            assert counters["worker_crashes"] >= 1
            assert counters["requests_redispatched"] >= 1
            assert all(h.alive() for h in gw._handles)  # shard respawned
        finally:
            await gw.stop()

    asyncio.run(main())


def test_persistent_cache_survives_gateway_restart(tmp_path):
    async def main():
        body = {"circuit": "example", "algorithm": "lshaped", "procs": 2}
        gw = await _started(cache_dir=str(tmp_path))
        try:
            status, first = await http_json("POST", gw.url + "/v1/factor", body)
            assert status == 200 and first["cache"] == "computed"
        finally:
            await gw.stop()

        gw = await _started(workers=3, cache_dir=str(tmp_path))
        try:
            status, doc = await http_json("POST", gw.url + "/v1/factor", body)
            assert status == 200
            # The disk tier survives the restart; journal restore keeps
            # the old job fetchable but must not shadow this tier.
            assert doc["cache"] == "disk"
            assert doc["result"]["final_lc"] == first["result"]["final_lc"]
        finally:
            await gw.stop()

    asyncio.run(main())


def test_health_ready_metrics_and_error_routes():
    async def main():
        gw = await _started()
        try:
            status, doc = await http_json("GET", gw.url + "/healthz")
            assert status == 200
            assert doc["status"] == "ok"
            worker = doc["workers"]["0"]
            assert worker["alive"] and not worker["stale"]
            assert set(worker["engine"]) == {"counters", "rect_search"}

            status, doc = await http_json("GET", gw.url + "/readyz")
            assert status == 200 and doc["ready"] is True

            status, doc = await http_json("GET", gw.url + "/metrics")
            assert status == 200
            assert "latency" in doc and "cache" in doc

            status, _ = await http_json("GET", gw.url + "/nope")
            assert status == 404
            status, _ = await http_json("GET", gw.url + "/v1/factor")
            assert status == 405
            status, doc = await http_json(
                "POST", gw.url + "/v1/factor", {"circuit": "example",
                                                "algorithm": "quantum"}
            )
            assert status == 400
            status, doc = await http_json(
                "POST", gw.url + "/v1/factor", {"circuit": "no-such-circuit"}
            )
            assert status == 400
            # A params key no runner takes is refused, naming the valid keys.
            status, doc = await http_json(
                "POST", gw.url + "/v1/factor",
                {"circuit": "example", "params": {"deadline": 5}},
            )
            assert status == 400
            assert "'deadline'" in doc["error"] and "max_seeds" in doc["error"]
        finally:
            await gw.stop()

    asyncio.run(main())


def test_stop_leaks_no_processes():
    async def main():
        gw = await _started()
        pids = [h.process.pid for h in gw._handles]
        await gw.stop()
        return pids

    pids = asyncio.run(main())
    import multiprocessing

    assert multiprocessing.active_children() == []
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
