"""JobJournal + fsck + gateway replay: the WAL that makes 202s durable.

The unit half exercises the journal mechanics directly (append/replay,
torn-tail tolerance, rotation, compaction, fsck repair).  The e2e half
boots real gateways on a shared cache dir and proves the restart
contract: accepted-but-unfinished jobs are re-admitted, finished jobs
stay fetchable, and a fresh identical request coalesces with (never
duplicates) a replayed one.  pytest-asyncio is not available, so async
bodies run under ``asyncio.run``.
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.serve import Gateway, GatewayConfig, probe_circuit_eqn
from repro.serve.durability import (
    JOURNAL_SCHEMA,
    JobJournal,
    fsck_scan,
    render_fsck_report,
)
from repro.serve.diskcache import CACHE_SCHEMA, DiskCache
from repro.serve.httpio import http_json, http_json_lines

KEY = "0" * 64


def _accept(journal, n, body=None, tenant="t0"):
    journal.append("accepted", f"j{n:06d}", seq=n, key=KEY,
                   tenant=tenant, body=body or {"circuit": "example"})


# ----------------------------------------------------------------------
# journal mechanics
# ----------------------------------------------------------------------


def test_append_replay_roundtrip(tmp_path):
    journal = JobJournal(tmp_path)
    _accept(journal, 0)
    journal.append("dispatched", "j000000", worker=1)
    journal.append("done", "j000000", status="done")
    _accept(journal, 1)
    journal.append("done", "j000001", status="failed")
    _accept(journal, 2)
    journal.close()

    replay = JobJournal(tmp_path).replay()
    assert [r["job_id"] for r in replay.unfinished] == ["j000002"]
    assert [r["job_id"] for r in replay.finished] == ["j000000"]
    assert replay.max_seq == 2
    assert replay.records == 6
    assert replay.torn == 0
    # the unfinished record carries everything replay needs
    rec = replay.unfinished[0]
    assert rec["body"] == {"circuit": "example"}
    assert rec["tenant"] == "t0" and rec["key"] == KEY


def test_torn_final_record_is_skipped_not_fatal(tmp_path):
    journal = JobJournal(tmp_path)
    _accept(journal, 0)
    _accept(journal, 1)
    journal.close()
    seg = next((tmp_path / "journal").glob("seg-*.jsonl"))
    with open(seg, "a") as fh:
        fh.write('{"schema": "repro.jobs/1", "type": "acc')  # kill -9 tear

    replay = JobJournal(tmp_path).replay()
    assert replay.torn == 1
    assert [r["job_id"] for r in replay.unfinished] == ["j000000", "j000001"]


def test_successful_done_wins_over_failure_markers(tmp_path):
    # A replay-failure marker followed by a real answer (or the reverse
    # order, from an interleaved redispatch) must restore the job.
    journal = JobJournal(tmp_path)
    _accept(journal, 0)
    journal.append("done", "j000000", status="failed")
    journal.append("done", "j000000", status="done")
    _accept(journal, 1)
    journal.append("done", "j000001", status="done")
    journal.append("done", "j000001", status="failed")
    journal.close()

    replay = JobJournal(tmp_path).replay()
    assert replay.unfinished == []
    assert [r["job_id"] for r in replay.finished] == ["j000000", "j000001"]


def test_rotation_and_compaction_bound_the_log(tmp_path):
    journal = JobJournal(tmp_path, segment_records=8)
    for n in range(20):
        _accept(journal, n)
        journal.append("done", f"j{n:06d}", status="done")
    # 40 records over 8-record segments: several rotations, and every
    # full segment's jobs are done, so rotation-time compaction already
    # deleted them.
    assert journal.rotations >= 4
    assert journal.segments_compacted >= 4
    assert journal.stats()["segments"] <= 2
    journal.close()
    replay = JobJournal(tmp_path).replay()
    assert replay.unfinished == []


def test_compaction_spans_segment_generations(tmp_path):
    # accepted in one segment by one gateway, done in a later segment
    # by its successor: the old segment is compactable only via the
    # *global* done-set that replay() seeds — a restarted writer's
    # in-memory done-set starts empty.
    first = JobJournal(tmp_path, segment_records=8)
    for n in range(7):
        _accept(first, n)
    first.close()                                # seg 1: accepted only

    second = JobJournal(tmp_path, segment_records=8)
    for n in range(2):
        _accept(second, n)                       # rotates seg 1 out
    for n in range(7):
        second.append("done", f"j{n:06d}", status="done")
    second.close()
    assert second.segments_compacted == 0        # seg 1 looked live to it

    reopened = JobJournal(tmp_path)
    assert len(reopened._segments()) >= 2
    replay = reopened.replay()
    assert replay.unfinished == []
    assert reopened.compact() >= 1
    assert len(reopened._segments()) == 1        # only the active one
    reopened.close()


def test_append_never_raises_on_disk_failure(tmp_path):
    class _Enospc:
        def write(self, s):
            raise OSError(28, "No space left on device")

        def flush(self):
            pass

        def close(self):
            pass

        def fileno(self):
            return -1

    journal = JobJournal(tmp_path)
    _accept(journal, 0)
    journal._fh = _Enospc()
    _accept(journal, 1)                          # must not raise
    assert journal.write_errors == 1
    assert journal.appends == 1


def test_stats_shape(tmp_path):
    journal = JobJournal(tmp_path)
    _accept(journal, 0)
    journal.append("done", "j000000", status="done")
    stats = journal.stats()
    for fieldname in ("schema", "dir", "segments", "active_records",
                      "appends", "fsyncs", "rotations",
                      "segments_compacted", "write_errors", "done_tracked"):
        assert fieldname in stats
    assert stats["schema"] == JOURNAL_SCHEMA
    assert stats["appends"] == 2 and stats["done_tracked"] == 1
    journal.close()


# ----------------------------------------------------------------------
# fsck
# ----------------------------------------------------------------------


def _seeded_tree(root):
    cache = DiskCache(root)
    for i in range(3):
        cache.put(f"{i:064d}", {"doc": i})
    journal = JobJournal(root)
    _accept(journal, 0)
    journal.close()
    return sorted(root.glob("*/objects/*/*.json"))


def test_fsck_clean_tree_is_ok(tmp_path):
    _seeded_tree(tmp_path)
    report = fsck_scan(tmp_path)
    assert report["ok"] and not report["issues"]
    assert report["checked_files"] >= 4
    schemas = {s["schema"] for s in report["schemas"]}
    assert JOURNAL_SCHEMA in schemas
    assert "clean" in render_fsck_report(report)


def test_fsck_detects_then_repairs_every_kind(tmp_path):
    objects = _seeded_tree(tmp_path)
    objects[0].write_text('{"torn')                            # corrupt entry
    (objects[1].parent / ".orphan-1.json.tmp").write_text("x")  # orphan tmp
    seg = next((tmp_path / "journal").glob("seg-*.jsonl"))
    with open(seg, "a") as fh:
        fh.write('{"schema": "repro.jobs/1"')                  # torn journal

    report = fsck_scan(tmp_path)
    assert not report["ok"]
    assert sorted({i["kind"] for i in report["issues"]}) \
        == ["corrupt-entry", "orphan-tmp", "torn-journal"]
    assert all("repaired" not in i for i in report["issues"])

    report = fsck_scan(tmp_path, repair=True)
    # repair leaves a servable tree, so the CLI contract is exit 0
    assert report["ok"]
    assert len(report["repaired"]) == len(report["issues"]) == 3

    # corrupt entries are quarantined (never silently deleted), the
    # orphan is gone, and the journal replays cleanly again
    quarantined = list(tmp_path.glob("*/quarantine/*.json"))
    assert len(quarantined) == 1
    assert not list(tmp_path.glob("*/objects/*/.*.tmp"))
    replay = JobJournal(tmp_path).replay()
    assert replay.torn == 0
    assert [r["job_id"] for r in replay.unfinished] == ["j000000"]

    assert fsck_scan(tmp_path)["ok"]


def test_fsck_repair_not_ok_when_repair_fails(tmp_path):
    objects = _seeded_tree(tmp_path)
    objects[0].write_text('{"torn')
    import os

    real_replace = os.replace

    def refuse(src, dst, *a, **kw):
        if "quarantine" in str(dst):
            raise OSError(13, "Permission denied")
        return real_replace(src, dst, *a, **kw)

    os.replace = refuse
    try:
        report = fsck_scan(tmp_path, repair=True)
    finally:
        os.replace = real_replace
    assert not report["ok"]
    assert report["issues"][0].get("repair_error")
    assert "repair failed" in render_fsck_report(report)


# ----------------------------------------------------------------------
# gateway replay, end to end
# ----------------------------------------------------------------------


async def _started(**kw):
    kw.setdefault("port", 0)
    kw.setdefault("workers", 2)
    gw = Gateway(GatewayConfig(**kw))
    await gw.start()
    assert await gw.wait_ready(15), "workers never became ready"
    return gw


def test_unfinished_job_replayed_across_restart(tmp_path):
    # Simulate a kill -9: an accepted record with no done record is all
    # the next gateway gets.  It must finish the job under the SAME id.
    journal = JobJournal(tmp_path)
    _accept(journal, 7, body={"circuit": "example",
                              "algorithm": "sequential"})
    journal.close()

    async def main():
        gw = await _started(cache_dir=str(tmp_path))
        try:
            status, lines = await http_json_lines(
                "GET", gw.url + "/v1/jobs/j000007?watch=1"
            )
            assert status == 200
            assert lines[-1]["status"] == "done"
            assert lines[-1]["result"]["final_lc"] > 0
            assert gw.metrics.snapshot()["counters"]["journal_replayed"] == 1

            # the id sequence continues past the journaled high-water
            # mark, so replayed and fresh jobs can never collide
            status, doc = await http_json(
                "POST", gw.url + "/v1/factor",
                {"circuit": "example", "wait": False})
            assert status in (200, 202)
            assert int(doc["job_id"][1:]) > 7
        finally:
            await gw.stop()

    asyncio.run(main())


def test_finished_job_survives_restart(tmp_path):
    # A client that got its 202 but never collected the answer must
    # still be able to GET it after a full gateway restart.
    async def main():
        body = {"circuit": "example", "algorithm": "sequential"}
        gw = await _started(cache_dir=str(tmp_path))
        try:
            status, first = await http_json(
                "POST", gw.url + "/v1/factor", body)
            assert status == 200 and first["status"] == "done"
        finally:
            await gw.stop()

        gw = await _started(cache_dir=str(tmp_path))
        try:
            assert gw.metrics.snapshot()["counters"]["journal_restored"] >= 1
            status, doc = await http_json(
                "GET", gw.url + f"/v1/jobs/{first['job_id']}")
            assert status == 200
            assert doc["status"] == "done"
            assert doc["result"]["final_lc"] == first["result"]["final_lc"]
        finally:
            await gw.stop()

    asyncio.run(main())


def test_replay_coalesces_with_fresh_identical_request(tmp_path):
    # A replayed job and a fresh identical request must resolve to ONE
    # computation — the fresh request coalesces onto the replayed job
    # (or answers from its cached result), never a duplicate dispatch.
    body = {"eqn": probe_circuit_eqn(31), "algorithm": "sequential"}
    journal = JobJournal(tmp_path)
    _accept(journal, 3, body=dict(body))
    journal.close()

    async def main():
        gw = await _started(cache_dir=str(tmp_path))
        try:
            status, fresh = await http_json(
                "POST", gw.url + "/v1/factor", dict(body), timeout=60)
            assert status == 200 and fresh["status"] == "done"

            status, replayed = await http_json(
                "GET", gw.url + "/v1/jobs/j000003")
            assert status == 200 and replayed["status"] == "done"
            assert (replayed["result"]["final_lc"]
                    == fresh["result"]["final_lc"])

            counters = gw.metrics.snapshot()["counters"]
            assert counters["journal_replayed"] == 1
            assert counters.get("requests_dispatched", 0) == 1
        finally:
            await gw.stop()

    asyncio.run(main())


def test_journal_disabled_serves_without_wal(tmp_path):
    async def main():
        gw = await _started(cache_dir=str(tmp_path), journal=False)
        try:
            assert gw.journal is None
            status, doc = await http_json(
                "POST", gw.url + "/v1/factor", {"circuit": "example"})
            assert status == 200 and doc["status"] == "done"
            status, health = await http_json("GET", gw.url + "/healthz")
            assert status == 200
            assert (health["gateway"] or {}).get("journal") is None
        finally:
            await gw.stop()
        assert not (tmp_path / "journal").exists()

    asyncio.run(main())


def test_replay_is_idempotent_when_result_already_cached(tmp_path):
    # If the computation landed in the disk cache before the crash, the
    # replayed job answers from it — zero recomputation.
    async def main():
        body = {"circuit": "example", "algorithm": "lshaped", "procs": 2}
        gw = await _started(cache_dir=str(tmp_path))
        try:
            status, first = await http_json(
                "POST", gw.url + "/v1/factor", body)
            assert status == 200
        finally:
            await gw.stop()

        # forge a crash artifact: the same request accepted again but
        # with its done record missing
        journal = JobJournal(tmp_path)
        _accept(journal, 90, body=dict(body))
        journal.close()

        gw = await _started(cache_dir=str(tmp_path))
        try:
            status, doc = await http_json(
                "GET", gw.url + "/v1/jobs/j000090")
            assert status == 200 and doc["status"] == "done"
            assert doc["result"]["final_lc"] == first["result"]["final_lc"]
            counters = gw.metrics.snapshot()["counters"]
            assert counters.get("requests_dispatched", 0) == 0
        finally:
            await gw.stop()

    asyncio.run(main())


def test_journal_records_are_versioned_json_lines(tmp_path):
    # the on-disk format is the API other tooling (fsck, ops scripts)
    # depends on: every line self-describes via the schema field
    journal = JobJournal(tmp_path)
    _accept(journal, 0)
    journal.append("dispatched", "j000000", worker=1)
    journal.append("done", "j000000", status="done")
    journal.close()
    seg = next((tmp_path / "journal").glob("seg-*.jsonl"))
    records = [json.loads(line) for line in seg.read_text().splitlines()]
    assert [r["type"] for r in records] == ["accepted", "dispatched", "done"]
    assert all(r["schema"] == JOURNAL_SCHEMA for r in records)
    assert (tmp_path / "journal" / "VERSION").read_text().strip() \
        == JOURNAL_SCHEMA


# ----------------------------------------------------------------------
# worker lifetime and the disk budget under a live gateway
# ----------------------------------------------------------------------


def test_cache_budget_holds_while_serving(tmp_path):
    # Workers write every result, so the budget must reach their
    # DiskCache, not only the gateway's read-side one.
    budget = 1000  # about three entries

    async def main():
        gw = await _started(cache_dir=str(tmp_path), workers=1,
                            cache_max_bytes=budget)
        try:
            for seed in range(8):
                status, doc = await http_json(
                    "POST", gw.url + "/v1/factor",
                    {"eqn": probe_circuit_eqn(100 + seed),
                     "algorithm": "sequential"}, timeout=60)
                assert status == 200 and doc["status"] == "done"
        finally:
            await gw.stop()

    asyncio.run(main())
    objects = tmp_path / CACHE_SCHEMA.replace("/", "-") / "objects"
    sizes = [p.stat().st_size for p in objects.rglob("*.json")]
    assert 0 < len(sizes) < 8
    assert sum(sizes) <= budget + max(sizes)


def _gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:  # exited, but its new parent has not reaped it yet
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def test_workers_exit_when_gateway_is_killed():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    pids = []
    try:
        url = re.search(r"http://\S+", proc.stdout.readline()).group(0)

        async def worker_pids():
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                _, doc = await http_json("GET", url + "/healthz")
                got = [w.get("pid") for w in doc["workers"].values()]
                if len(got) == 2 and all(got):
                    return got
                await asyncio.sleep(0.1)
            raise AssertionError("workers never said hello")

        pids = asyncio.run(worker_pids())
        proc.kill()  # SIGKILL: no shutdown message reaches the workers
        proc.wait()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and not all(map(_gone, pids)):
            time.sleep(0.05)
        assert all(map(_gone, pids)), "workers outlived their gateway"
    finally:
        proc.kill()
        proc.wait()
        for pid in pids:
            if not _gone(pid):
                os.kill(pid, signal.SIGKILL)
