"""Gateway under pressure: ring pinning, load shedding, shard breaker.

Covers the crash-loop/pressure protections around the serving tier:

- the job-registry ring never evicts a job that is live or that a
  watcher stream is pinned to (the regression was a flood of fast jobs
  evicting a finished-but-still-watched job mid-stream);
- the KC-footprint budget sheds work with 429 + Retry-After instead of
  letting one burst of oversized jobs exhaust worker memory;
- with every shard failing the gateway answers 503 + Retry-After and
  retires the job in the journal (the client owns the retry, never the
  replay); with a healthy shard left, every job goes to it;
- worker respawn delays back off exponentially with jitter.
"""

import asyncio

from repro.serve import Gateway, GatewayConfig, probe_circuit_eqn
from repro.serve.durability import JobJournal
from repro.serve.gateway import Job
from repro.serve.httpio import http_json, http_json_lines


def _config(**kw):
    kw.setdefault("port", 0)
    kw.setdefault("workers", 2)
    return GatewayConfig(**kw)


async def _started(**kw):
    gw = Gateway(_config(**kw))
    await gw.start()
    assert await gw.wait_ready(15), "workers never became ready"
    return gw


def _done_job(n):
    job = Job(f"j{n:06d}", f"{n:064d}", "t0", {"algorithm": "sequential"})
    job.done.set()
    return job


def test_register_never_evicts_live_or_pinned_jobs():
    gw = Gateway(_config(job_registry_capacity=3))
    jobs = [_done_job(n) for n in range(3)]
    for job in jobs:
        gw._register(job)

    jobs[0].pins = 1                      # a watcher stream is attached
    gw._register(_done_job(3))
    assert "j000000" in gw._jobs          # pinned: survived the overflow
    assert "j000001" not in gw._jobs      # oldest unpinned done: evicted

    live = Job("j000010", "k" * 64, "t0", {"algorithm": "sequential"})
    gw._register(live)                    # live jobs are never evicted
    gw._register(_done_job(4))
    gw._register(_done_job(5))
    assert "j000010" in gw._jobs and "j000000" in gw._jobs

    jobs[0].pins = 0                      # the watcher detached
    gw._register(_done_job(6))
    assert "j000000" not in gw._jobs      # now it is fair game

    # every survivor pinned or live: the ring may exceed capacity, but
    # the eviction scan must terminate rather than spin
    for job in gw._jobs.values():
        job.pins = 1
    pinned = _done_job(7)
    pinned.pins = 1
    gw._register(pinned)
    assert len(gw._jobs) > 3


def test_watch_stream_survives_registry_churn(tmp_path):
    async def main():
        gw = await _started(job_registry_capacity=2,
                            cache_dir=str(tmp_path))
        try:
            slow = {"eqn": probe_circuit_eqn(41),
                    "algorithm": "sequential", "wait": False}
            status, doc = await http_json(
                "POST", gw.url + "/v1/factor", slow)
            assert status == 202
            watcher = asyncio.ensure_future(http_json_lines(
                "GET", gw.url + f"/v1/jobs/{doc['job_id']}?watch=1",
                timeout=60,
            ))
            await asyncio.sleep(0.1)      # let the watcher attach + pin
            # churn the tiny ring with quick distinct jobs
            for algorithm in ("sequential", "baseline", "lshaped",
                              "replicated", "independent"):
                status, _ = await http_json(
                    "POST", gw.url + "/v1/factor",
                    {"circuit": "example", "algorithm": algorithm})
                assert status == 200
            status, lines = await watcher
            assert status == 200
            assert lines[-1]["status"] == "done"
            assert lines[-1]["result"]["final_lc"] > 0
        finally:
            await gw.stop()

    asyncio.run(main())


def test_footprint_budget_sheds_with_429_retry_after():
    async def main():
        gw = await _started(workers=1, max_footprint=1)
        try:
            first = {"eqn": probe_circuit_eqn(42),
                     "algorithm": "sequential", "wait": False}
            status, doc = await http_json(
                "POST", gw.url + "/v1/factor", first)
            assert status == 202          # an idle gateway always admits
            job_id = doc["job_id"]

            second = {"eqn": probe_circuit_eqn(43),
                      "algorithm": "sequential", "wait": False}
            status, shed = await http_json(
                "POST", gw.url + "/v1/factor", second)
            assert status == 429
            assert shed["error"] == "load_shed"
            assert shed["retry_after"] > 0
            assert shed["footprint"] > shed["budget"]
            assert gw.metrics.snapshot()["counters"]["requests_shed"] == 1

            # drain the admitted job so shutdown is clean
            _, lines = await http_json_lines(
                "GET", gw.url + f"/v1/jobs/{job_id}?watch=1", timeout=60)
            assert lines[-1]["status"] == "done"
        finally:
            await gw.stop()

    asyncio.run(main())


def test_failing_shard_without_fallback_answers_503(tmp_path):
    async def main():
        gw = await _started(workers=1, cache_dir=str(tmp_path))
        try:
            gw._handles[0].failing = True     # breaker open, no fallback
            status, doc = await http_json(
                "POST", gw.url + "/v1/factor", {"circuit": "example"})
            assert status == 503
            assert doc["error"] == "shard_failing"
            assert doc["retry_after"] > 0
            counters = gw.metrics.snapshot()["counters"]
            assert counters["requests_shard_failing"] == 1
        finally:
            await gw.stop()

        # the 503'd job was retired in the journal: the client owns the
        # retry, so the next gateway must NOT resurrect it
        replay = JobJournal(tmp_path).replay()
        assert replay.unfinished == []

    asyncio.run(main())


def test_failing_shard_with_fallback_reshards():
    async def main():
        gw = await _started(workers=2)
        try:
            gw._handles[0].failing = True
            for algorithm in ("sequential", "baseline", "lshaped"):
                status, doc = await http_json(
                    "POST", gw.url + "/v1/factor",
                    {"circuit": "example", "algorithm": algorithm})
                assert status == 200
                assert doc["status"] == "done"
                assert doc["worker"] == 1     # never the failing shard
            counters = gw.metrics.snapshot()["counters"]
            assert counters.get("requests_shard_failing", 0) == 0
        finally:
            gw._handles[0].failing = False
            await gw.stop()

    asyncio.run(main())


class _FakeHandle:
    def __init__(self, worker_id, alive=True, failing=False):
        self.worker_id = worker_id
        self.failing = failing
        self._alive = alive

    def alive(self):
        return self._alive


def test_pick_worker_skips_failing_and_prefers_live_workers():
    gw = Gateway(_config(workers=3))
    gw._handles = [_FakeHandle(0), _FakeHandle(1), _FakeHandle(2)]
    gw._outstanding = {0: {"a": 1, "b": 2}, 1: {"c": 3}, 2: {"d": 4}}
    assert gw._pick_worker() == 1          # fewest outstanding, lowest id
    gw._handles[1].failing = True
    assert gw._pick_worker() == 2          # the breaker's shard is skipped
    gw._handles[2]._alive = False
    assert gw._pick_worker() == 0          # live beats awaiting respawn
    gw._handles[0].failing = True
    assert gw._pick_worker() == 2          # respawning beats no worker
    gw._handles[2].failing = True
    assert gw._pick_worker() is None       # every breaker open: 503


def test_respawn_backoff_is_exponential_and_jittered():
    gw = Gateway(_config(respawn_backoff=0.2, respawn_backoff_max=1.0))
    assert gw._respawn_delay(1) == 0.0    # first respawn is free
    for consecutive, base in ((2, 0.2), (3, 0.4), (4, 0.8), (5, 1.0),
                              (9, 1.0)):
        for _ in range(16):
            delay = gw._respawn_delay(consecutive)
            assert base * 0.5 <= delay <= base * 1.5
