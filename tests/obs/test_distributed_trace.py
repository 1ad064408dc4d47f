"""End-to-end distributed tracing: gateway + worker processes, real HTTP.

These are the cross-process guarantees the trace endpoint makes: every
completed request has one merged trace whose spans share a single
trace_id across the gateway and worker processes; a worker SIGKILL
mid-request preserves the original trace_id through the redispatch and
leaves a flight-recorder artifact; traces stay available through the
NDJSON watch flow and across a gateway restart.
"""

import asyncio
import glob
import os
import signal

from repro.obs.export import TRACE_SCHEMA
from repro.obs.flight import load_flight, render_flight
from repro.serve import Gateway, GatewayConfig, probe_circuit_eqn
from repro.serve.httpio import http_json, http_json_lines


async def _started(**kw):
    kw.setdefault("port", 0)
    kw.setdefault("workers", 2)
    gw = Gateway(GatewayConfig(**kw))
    await gw.start()
    assert await gw.wait_ready(15), "workers never became ready"
    return gw


def _span_index(trace):
    return {sp["id"]: sp for sp in trace["spans"]}


async def _fetch_trace(gw, job_id):
    status, trace = await http_json(
        "GET", gw.url + f"/v1/jobs/{job_id}/trace"
    )
    assert status == 200, trace
    return trace


def test_completed_request_has_one_merged_cross_process_trace():
    async def main():
        gw = await _started()
        try:
            body = {"circuit": "example", "algorithm": "sequential"}
            status, doc = await http_json("POST", gw.url + "/v1/factor", body)
            assert status == 200 and doc["status"] == "done"
            assert doc["trace_id"]

            trace = await _fetch_trace(gw, doc["job_id"])
            assert trace["schema"] == TRACE_SCHEMA
            assert trace["trace_id"] == doc["trace_id"]
            assert trace["job_id"] == doc["job_id"]
            assert "gateway" in trace["procs"]
            assert any(p.startswith("worker:") for p in trace["procs"])

            spans = _span_index(trace)
            by_name = {sp["name"]: sp for sp in trace["spans"]}
            request = by_name["request"]
            dispatch = by_name["dispatch"]
            factor = by_name["worker-factor"]
            assert request.get("parent") is None
            assert dispatch["parent"] == request["id"]
            # the worker's root span nests under the gateway dispatch
            # span — across a process boundary
            assert factor["parent"] == dispatch["id"]
            assert factor["proc"].startswith("worker:")
            assert request["attrs"]["trace_id"] == doc["trace_id"]
            # engine internals rode along inside the worker batch
            assert any(
                sp["proc"].startswith("worker:") and sp["id"] != factor["id"]
                for sp in trace["spans"]
            )
            for sp in trace["spans"]:
                assert sp["t1"] >= sp["t0"] >= 0.0
                parent = sp.get("parent")
                if parent is not None:
                    assert parent in spans

            # chrome export of the same trace
            status, chrome = await http_json(
                "GET", gw.url + f"/v1/jobs/{doc['job_id']}/trace?format=chrome"
            )
            assert status == 200
            events = chrome["traceEvents"]
            assert any(e.get("ph") == "X" for e in events)
            pids = {e["pid"] for e in events if e.get("ph") == "X"}
            assert len(pids) >= 2  # gateway + at least one worker
        finally:
            await gw.stop()

    asyncio.run(main())


def test_inbound_trace_header_is_honored_end_to_end():
    async def main():
        gw = await _started(workers=1)
        try:
            body = {"circuit": "example", "algorithm": "sequential"}
            status, doc = await http_json(
                "POST", gw.url + "/v1/factor", body,
                headers={"X-Repro-Trace": "deadbeefdeadbeef:7"},
            )
            assert status == 200
            assert doc["trace_id"] == "deadbeefdeadbeef"
            trace = await _fetch_trace(gw, doc["job_id"])
            assert trace["trace_id"] == "deadbeefdeadbeef"
            request = next(
                sp for sp in trace["spans"] if sp["name"] == "request"
            )
            assert request["attrs"]["client_parent"] == 7
        finally:
            await gw.stop()

    asyncio.run(main())


def test_coalesced_follower_gets_join_span_with_both_trace_ids():
    async def main():
        gw = await _started()
        try:
            body = {"eqn": probe_circuit_eqn(21), "algorithm": "sequential"}
            results = await asyncio.gather(*[
                http_json("POST", gw.url + "/v1/factor", dict(body),
                          timeout=60)
                for _ in range(3)
            ])
            assert [s for s, _ in results] == [200] * 3
            docs = [d for _, d in results]
            followers = [d for d in docs if d["coalesced"]]
            leaders = [d for d in docs if not d["coalesced"]]
            assert len(leaders) == 1 and len(followers) == 2
            leader = leaders[0]

            for doc in followers:
                assert doc["trace_id"] != leader["trace_id"]
                trace = await _fetch_trace(gw, doc["job_id"])
                assert trace["trace_id"] == doc["trace_id"]
                join = next(
                    sp for sp in trace["spans"]
                    if sp["name"] == "coalesce-join"
                )
                assert join["attrs"]["leader_trace_id"] == leader["trace_id"]
                assert join["attrs"]["follower_trace_id"] == doc["trace_id"]
                # the shared worker spans are rehomed under the join
                factor = next(
                    sp for sp in trace["spans"]
                    if sp["name"] == "worker-factor"
                )
                assert factor["parent"] == join["id"]
        finally:
            await gw.stop()

    asyncio.run(main())


def test_sigkill_mid_request_keeps_trace_id_and_dumps_flight(tmp_path):
    flight_dir = str(tmp_path / "flight")

    async def main():
        gw = await _started(flight_dir=flight_dir)
        try:
            body = {"eqn": probe_circuit_eqn(23), "algorithm": "sequential"}
            task = asyncio.ensure_future(
                http_json("POST", gw.url + "/v1/factor", body, timeout=60)
            )
            busy = []
            for _ in range(200):  # wait until the job is on a worker
                await asyncio.sleep(0.02)
                busy = [h for h in gw._handles if gw._outstanding[h.worker_id]]
                if busy:
                    break
            assert busy, "request never reached a worker"
            victim = busy[0].worker_id
            os.kill(busy[0].process.pid, signal.SIGKILL)

            status, doc = await task
            assert status == 200 and doc["status"] == "done"

            # the redispatched request kept its original trace_id …
            trace = await _fetch_trace(gw, doc["job_id"])
            assert trace["trace_id"] == doc["trace_id"]
            redispatch = [
                sp for sp in trace["spans"] if sp["name"] == "redispatch"
            ]
            assert redispatch, "trace does not show the respawn redispatch"
            assert any(sp["name"] == "worker-factor"
                       for sp in trace["spans"])

            # … and the gateway dumped its flight ring for the crash
            dumps = glob.glob(
                os.path.join(flight_dir, f"*worker-{victim}-crash*.flight.jsonl")
            )
            assert dumps, os.listdir(flight_dir)
            flight = load_flight(dumps[0])
            assert flight["header"]["proc"] == "gateway"
            names = [e["name"] for e in flight["events"]]
            assert f"worker-{victim}-dead" in names
            assert any(e["kind"] == "dispatch" for e in flight["events"])
            assert "worker" in render_flight(flight)
        finally:
            await gw.stop()

    asyncio.run(main())


def test_watch_stream_and_trace_survive_gateway_restart(tmp_path):
    async def main():
        body = {"circuit": "example", "algorithm": "lshaped", "procs": 2}
        gw = await _started(cache_dir=str(tmp_path))
        try:
            # async submit + NDJSON watch: the stream ends in a done
            # document that already carries the trace_id
            req = dict(body, wait=False)
            status, doc = await http_json("POST", gw.url + "/v1/factor", req)
            assert status in (200, 202)
            job_id = doc["job_id"]
            status, lines = await http_json_lines(
                "GET", gw.url + f"/v1/jobs/{job_id}?watch=1"
            )
            assert status == 200 and lines[-1]["status"] == "done"
            assert lines[-1]["trace_id"]
            trace = await _fetch_trace(gw, job_id)
            assert trace["trace_id"] == lines[-1]["trace_id"]
        finally:
            await gw.stop()

        # a fresh gateway over the same cache: the disk-served request
        # still produces a complete merged trace of its own
        gw = await _started(cache_dir=str(tmp_path))
        try:
            status, doc = await http_json("POST", gw.url + "/v1/factor", body)
            assert status == 200 and doc["cache"] == "disk"
            trace = await _fetch_trace(gw, doc["job_id"])
            assert trace["trace_id"] == doc["trace_id"]
            names = {sp["name"] for sp in trace["spans"]}
            assert {"request", "dispatch", "worker-factor"} <= names
        finally:
            await gw.stop()

    asyncio.run(main())


def test_tracing_can_be_disabled():
    async def main():
        gw = await _started(workers=1, trace_requests=False)
        try:
            body = {"circuit": "example", "algorithm": "sequential"}
            status, doc = await http_json("POST", gw.url + "/v1/factor", body)
            assert status == 200
            assert "trace_id" not in doc
            status, err = await http_json(
                "GET", gw.url + f"/v1/jobs/{doc['job_id']}/trace"
            )
            assert status == 404
            assert "trace" in err["error"]
        finally:
            await gw.stop()

    asyncio.run(main())
