#!/usr/bin/env python
"""CI smoke test for the serving tier (the serve-smoke job).

Boots a real gateway (2 worker processes, persistent cache in a temp
dir), then asserts, end to end over HTTP:

- /readyz goes green and /healthz reports every worker ok;
- a short open-loop loadgen burst completes with ZERO failed requests;
- K identical concurrent requests coalesce onto exactly one computation;
- two distinct concurrent cold requests run on two different workers
  (least-loaded dispatch);
- a worker killed with SIGKILL is respawned and the in-flight request
  still completes;
- every completed request has a fetchable merged trace whose spans
  span the gateway and worker processes under one trace_id;
- the worker crash leaves a flight-recorder artifact under the cache
  dir that parses back;
- /metrics?format=prom passes the text-format 0.0.4 validator;
- after a full gateway restart on the same cache dir, the answer comes
  from the disk tier, and the job journal is live;
- fsck reports the cache tree clean, detects seeded corruption (a
  truncated object + an orphaned temp file), and --repair restores it;
- shutdown leaks no worker processes.

Exit status is non-zero on any failure.  Runtime is a few seconds.
"""

import asyncio
import multiprocessing
import os
import pathlib
import signal
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.export import TRACE_SCHEMA
from repro.obs.flight import load_flight
from repro.obs.prom import validate_prometheus_text
from repro.serve import (
    Gateway,
    GatewayConfig,
    LoadgenConfig,
    probe_circuit_eqn,
    run_loadgen,
)
from repro.serve.httpio import http_json, http_text

CHECKS = []


def check(name: str, ok: bool, detail: str = "") -> None:
    CHECKS.append(ok)
    print(f"  {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))


async def smoke(cache_dir: str) -> None:
    gw = Gateway(GatewayConfig(port=0, workers=2, cache_dir=cache_dir))
    await gw.start()
    try:
        check("workers ready", await gw.wait_ready(20))

        status, doc = await http_json("GET", gw.url + "/readyz")
        check("/readyz green", status == 200 and doc.get("ready") is True)
        status, doc = await http_json("GET", gw.url + "/healthz")
        check("/healthz ok", status == 200 and doc.get("status") == "ok",
              f"status={doc.get('status')}")

        print("loadgen burst:")
        report = await run_loadgen(LoadgenConfig(
            url=gw.url, rate=25.0, duration=2.0, tenants=2, seed=0,
        ))
        check("burst sent requests", report.sent > 0, f"sent={report.sent}")
        check("zero failed requests", report.failed == 0,
              f"failed={report.failed}; {report.errors[:3]}")
        check("all requests answered", report.ok == report.sent)

        print("coalescing probe:")
        body = {"eqn": probe_circuit_eqn(21), "algorithm": "sequential"}
        results = await asyncio.gather(*[
            http_json("POST", gw.url + "/v1/factor", dict(body))
            for _ in range(6)
        ])
        counters = gw.metrics.snapshot()["counters"]
        check("all probe requests ok",
              all(s == 200 for s, _ in results))
        check("coalescing hit", counters.get("requests_coalesced", 0) >= 1,
              f"coalesced={counters.get('requests_coalesced', 0)}")
        check("one answer for all waiters",
              len({d["result"]["final_lc"] for _, d in results}) == 1)

        print("least-loaded routing:")
        pair = await asyncio.gather(*[
            http_json("POST", gw.url + "/v1/factor",
                      {"eqn": probe_circuit_eqn(seed),
                       "algorithm": "sequential"})
            for seed in (23, 24)
        ])
        check("both cold requests ok",
              all(s == 200 and d.get("cache") == "computed"
                  for s, d in pair))
        check("distinct cold requests on distinct workers",
              len({d.get("worker") for _, d in pair}) == 2,
              f"workers={[d.get('worker') for _, d in pair]}")

        print("distributed trace:")
        leader = next(d for _, d in results if not d.get("coalesced"))
        status, trace = await http_json(
            "GET", gw.url + f"/v1/jobs/{leader['job_id']}/trace"
        )
        check("merged trace fetchable",
              status == 200 and trace.get("schema") == TRACE_SCHEMA,
              f"status={status} schema={(trace or {}).get('schema')}")
        if status == 200:
            check("trace id spans both processes",
                  trace["trace_id"] == leader.get("trace_id")
                  and "gateway" in trace["procs"]
                  and any(p.startswith("worker:") for p in trace["procs"]),
                  f"procs={trace.get('procs')}")
            by_name = {sp["name"]: sp for sp in trace["spans"]}
            check("worker span nests under gateway dispatch",
                  by_name.get("worker-factor", {}).get("parent")
                  == by_name.get("dispatch", {}).get("id"))

        print("prometheus exposition:")
        status, text = await http_text("GET", gw.url + "/metrics?format=prom")
        problems = validate_prometheus_text(text) if status == 200 else ["no response"]
        check("/metrics?format=prom validates",
              status == 200 and not problems, "; ".join(problems[:3]))

        print("crash recovery:")
        body = {"eqn": probe_circuit_eqn(22), "algorithm": "sequential"}
        task = asyncio.ensure_future(
            http_json("POST", gw.url + "/v1/factor", body, timeout=60)
        )
        busy = []
        for _ in range(200):
            await asyncio.sleep(0.02)
            busy = [h for h in gw._handles if gw._outstanding[h.worker_id]]
            if busy:
                break
        check("request reached a worker", bool(busy))
        if busy:
            os.kill(busy[0].process.pid, signal.SIGKILL)
        status, doc = await task
        check("request survived worker crash",
              status == 200 and doc.get("status") == "done")
        counters = gw.metrics.snapshot()["counters"]
        check("crash detected + redispatched",
              counters.get("worker_crashes", 0) >= 1
              and counters.get("requests_redispatched", 0) >= 1)
        check("shard respawned", all(h.alive() for h in gw._handles))
        status, doc = await http_json("GET", gw.url + "/readyz")
        check("/readyz green after crash",
              status == 200 and doc.get("ready") is True)

        import glob

        dumps = glob.glob(os.path.join(
            cache_dir, "flight", "*crash*.flight.jsonl"
        ))
        check("crash left a flight dump", bool(dumps),
              f"flight dir={os.path.join(cache_dir, 'flight')}")
        if dumps:
            flight = load_flight(dumps[0])
            check("flight dump parses with events",
                  flight["header"]["proc"] == "gateway"
                  and any("dead" in e.get("name", "")
                          for e in flight["events"]),
                  f"events={len(flight['events'])}")
    finally:
        await gw.stop()

    print("persistent cache across restart:")
    gw = Gateway(GatewayConfig(port=0, workers=2, cache_dir=cache_dir))
    await gw.start()
    try:
        check("workers ready after restart", await gw.wait_ready(20))
        body = {"circuit": "example", "algorithm": "sequential"}
        status, doc = await http_json("POST", gw.url + "/v1/factor", body)
        check("disk cache hit across restart",
              status == 200 and doc.get("cache") == "disk",
              f"cache={doc.get('cache')}")
        status, doc = await http_json("GET", gw.url + "/healthz")
        journal = (doc.get("gateway") or {}).get("journal") or {}
        check("job journal live after restart",
              status == 200 and journal.get("schema") == "repro.jobs/1",
              f"journal={journal}")
    finally:
        await gw.stop()

    print("fsck over the cache dir:")
    from repro.serve import fsck_scan

    report = fsck_scan(cache_dir)
    check("post-run tree is clean", report["ok"],
          f"issues={len(report['issues'])}")
    objects = sorted(pathlib.Path(cache_dir).glob("*/objects/*/*.json"))
    check("cache has persisted entries", bool(objects))
    if objects:
        objects[0].write_text('{"torn')
        (objects[0].parent / ".orphan-123.json.tmp").write_text("x")
        report = fsck_scan(cache_dir)
        check("fsck detects seeded corruption",
              not report["ok"] and len(report["issues"]) >= 2,
              f"issues={[i['kind'] for i in report['issues']]}")
        report = fsck_scan(cache_dir, repair=True)
        check("fsck --repair fixes the tree",
              report["ok"] and len(report["repaired"]) >= 2)
        check("tree clean after repair", fsck_scan(cache_dir)["ok"])


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        asyncio.run(smoke(tmp))
    leaked = multiprocessing.active_children()
    check("no leaked worker processes", not leaked, f"leaked={leaked}")
    failed = CHECKS.count(False)
    print(f"\nserve smoke: {len(CHECKS) - failed}/{len(CHECKS)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
