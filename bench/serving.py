"""The served workloads: ``repro serve`` subprocesses and a closed-loop
client.

The benchmark is the only client: one process, at most ``nproc``
keep-alive connections, each sending its next request only after the
previous answer arrived (a closed loop, like synthesis users who submit
a job and wait for the network).  Latency runs from the first byte sent
to the last byte of the response read.  Inputs are generated and
JSON-encoded before timing starts; answers are checked afterwards.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from common import (
    ROOT,
    Speed,
    child_env,
    equivalent,
    load_spec,
    peak_rss_mb,
    percentile,
    rate,
    timed_launch,
)
from fold import Fold
import workloads

#: Server launches per untraced run; ``setup_s`` is their median.
SETUP_LAUNCHES = 5
WORKERS = 2
START_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0
#: Cache-hit traces fetched per traced run (a stride sample; each one
#: stands for its share of all hits).
HIT_TRACE_SAMPLE = 300
#: Requests per second the pregenerated ``serve-warm`` stream covers;
#: beyond it, requests are generated on demand.
WARM_RATE_CEILING = 400


class ServerError(RuntimeError):
    pass


class Server:
    """One ``repro serve`` process tree (gateway plus worker processes)."""

    def __init__(self, cache_dir: Path, traced: bool, log_path: Path):
        self.cache_dir = cache_dir
        self.traced = traced
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> float:
        """Spawn the server; return seconds until ``/readyz`` says 200."""
        args = [sys.executable, "-m", "repro", "serve", "--port", "0",
                "--workers", str(WORKERS), "--cache-dir", str(self.cache_dir)]
        if not self.traced:
            args.append("--no-trace")
        env = child_env()
        env["PYTHONUNBUFFERED"] = "1"
        t0 = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                args, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=log, start_new_session=True,
            )
        deadline = t0 + START_TIMEOUT
        line = b""
        while b"listening on" not in line:
            remaining = max(0.0, deadline - time.perf_counter())
            readable, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if not readable:
                raise ServerError("repro serve did not start in time")
            line = self.proc.stdout.readline()
            if not line:
                raise ServerError("repro serve exited during start-up")
        url = line.decode().split("listening on ", 1)[1].split()[0]
        self.port = int(url.rsplit(":", 1)[1])
        while True:
            try:
                status, _ = http_get(self.host, self.port, "/readyz")
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - t0
            if time.perf_counter() > deadline:
                raise ServerError("repro serve never became ready")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """Summed high-water RSS of the gateway and its workers, in MB."""
        _, health = http_get(self.host, self.port, "/healthz")
        pids = [self.proc.pid] + [
            w["pid"] for w in health["workers"].values() if w.get("pid")]
        return sum(peak_rss_mb(pid) for pid in pids)

    def stop(self) -> None:
        """Graceful shutdown (SIGTERM), then reap the whole session."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            proc.send_signal(signal.SIGTERM)
            proc.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            pass
        finally:
            # The gateway joins its workers on the way out; stragglers of
            # a failed shutdown die with the session.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            proc.stdout.close()


def http_get(host: str, port: int, path: str) -> Tuple[int, dict]:
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"{}")
    finally:
        conn.close()


@dataclass
class Item:
    """One request: stream index, oracle key, input network, JSON body,
    and the seconds its circuit took to generate."""

    index: int
    key: object
    network: object
    body: bytes
    gen_s: float


@dataclass
class Record:
    item: Item
    status: int
    doc: dict
    latency: float
    send_wall: float
    t_start: float
    t_end: float
    #: measured seconds -> reference-speed seconds (see common.Speed)
    scale: float = 1.0

    @property
    def norm_latency(self) -> float:
        return self.latency * self.scale


def make_item(index: int, key: object, job: workloads.Job) -> Item:
    from repro.circuits.generators import generate_circuit
    from repro.network.eqn import write_eqn

    t0 = time.perf_counter()
    network = generate_circuit(job.spec)
    gen_s = time.perf_counter() - t0
    body = json.dumps({
        "eqn": write_eqn(network),
        "algorithm": job.algorithm,
        "procs": workloads.PROCS,
        "include_network": True,
    }).encode()
    return Item(index, key, network, body, gen_s)


class Feed:
    """Thread-safe request stream: pregenerated items first, then items
    generated on demand if the run outlasts the estimate."""

    def __init__(self, make: Callable[[int], Item], pregenerate: int):
        self._make = make
        self._items = [make(i) for i in range(pregenerate)]
        self._next = 0
        self._lock = threading.Lock()

    def next(self) -> Item:
        with self._lock:
            i = self._next
            self._next += 1
        if i < len(self._items):
            return self._items[i]
        return self._make(i)


def closed_loop(host: str, port: int, feed: Feed, connections: int,
                seconds: Optional[float] = None,
                limit: Optional[int] = None) -> List[Record]:
    """Drive *connections* closed-loop clients until *seconds* pass or
    *limit* requests were sent; return the exchanges by stream index.

    Between requests, outside the timed exchange, the clients sample the
    cores' speed (at most every 100 ms) to scale the latencies."""
    records: List[Record] = []
    lock = threading.Lock()
    sent = [0]
    deadline = time.perf_counter() + seconds if seconds is not None else None
    speed = Speed(all_cores=True)

    def client() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=300)
        try:
            while deadline is None or time.perf_counter() < deadline:
                with lock:
                    if limit is not None and sent[0] >= limit:
                        break
                    sent[0] += 1
                item = feed.next()
                speed.sample()
                send_wall = time.time()
                t0 = time.perf_counter()
                try:
                    conn.request("POST", "/v1/factor", item.body,
                                 {"Content-Type": "application/json"})
                    resp = conn.getresponse()
                    raw = resp.read()
                    status = resp.status
                except (OSError, http.client.HTTPException):
                    raw, status = b"", 0
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=300)
                t1 = time.perf_counter()
                try:
                    doc = json.loads(raw) if raw else {}
                except ValueError:
                    doc = {}
                with lock:
                    records.append(Record(item, status, doc, t1 - t0,
                                          send_wall, t0, t1))
        finally:
            conn.close()

    threads = [threading.Thread(target=client, name=f"bench-client-{i}")
               for i in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    speed.sample(force=True)
    for rec in records:
        rec.scale = speed.factor(rec.t_start, rec.t_end)
    records.sort(key=lambda r: r.item.index)
    return records


def check_records(records: List[Record], verdicts: Dict) -> List[str]:
    """Oracle for served answers: HTTP 200, a done job, an ``eqn`` in the
    result, that network equivalent to the input, and no literal-count
    growth.  Identical answers to one input are checked once."""
    from repro.network.eqn import read_eqn

    errors = []
    for rec in records:
        label = f"request {rec.item.index}"
        result = rec.doc.get("result") or {}
        eqn = result.get("eqn")
        if rec.status != 200 or rec.doc.get("status") != "done":
            errors.append(f"{label}: HTTP {rec.status} {rec.doc.get('error', '')}")
            continue
        if not eqn:
            errors.append(f"{label}: response carries no eqn")
            continue
        ck = (rec.item.key, eqn)
        ok = verdicts.get(ck)
        if ok is None:
            try:
                ok = (equivalent(rec.item.network, read_eqn(eqn))
                      and result["final_lc"] <= result["initial_lc"])
            except (ValueError, KeyError):
                ok = False
            verdicts[ck] = ok
        if not ok:
            errors.append(f"{label}: answer not equivalent to its input")
    return errors


def lc_ratio(records: List[Record]) -> float:
    initial = final = 0
    for rec in records:
        result = rec.doc.get("result") or {}
        initial += result.get("initial_lc", 0)
        final += result.get("final_lc", 0)
    return final / initial if initial else 0.0


@dataclass
class Segment:
    """One server's share of a run."""

    warmup: List[Record] = field(default_factory=list)
    timed: List[Record] = field(default_factory=list)
    #: The fixed requests whose quality (``lc_ratio``) is reported.
    quality: List[Record] = field(default_factory=list)
    elapsed: float = 0.0


def drive(server: Server, workload: str, seed: int, seconds: float) -> Segment:
    """Warm up, then run the timed closed loop for *seconds*."""
    seg = Segment()
    host, port = server.host, server.port
    if workload == "serve-cold":
        n_warm = workloads.COLD_WARMUP_REQUESTS
        warm = Feed(lambda i: make_item(i, ("warmup", i),
                                        workloads.cold_job(seed, i, warmup=True)),
                    n_warm)
        seg.warmup = closed_loop(host, port, warm, workloads.COLD_CONNECTIONS,
                                 limit=n_warm)
        # Pregenerate what the warm-up latency says the run will use.
        est = percentile([r.latency for r in seg.warmup], 50)
        need = int(1.25 * workloads.COLD_CONNECTIONS * seconds / max(est, 1e-3)) + 8
        feed = Feed(lambda i: make_item(i, i, workloads.cold_job(seed, i)), need)
        seg.timed = closed_loop(host, port, feed, workloads.COLD_CONNECTIONS, seconds)
        seg.quality = seg.timed[:workloads.COLD_QUALITY_PREFIX]
    elif workload == "serve-warm":
        catalogue = [make_item(k, k, job)
                     for k, job in enumerate(workloads.warm_catalogue(seed))]
        prewarm = Feed(lambda i: catalogue[i], len(catalogue))
        seg.warmup = closed_loop(host, port, prewarm,
                                 workloads.WARM_PREWARM_CONNECTIONS,
                                 limit=len(catalogue))
        seg.quality = seg.warmup

        def warm_item(i: int) -> Item:
            key, job = workloads.warm_request(seed, i)
            if job is not None:
                return make_item(i, key, job)
            entry = catalogue[key]
            return Item(i, key, entry.network, entry.body, entry.gen_s)

        feed = Feed(warm_item, int(seconds * WARM_RATE_CEILING))
        seg.timed = closed_loop(host, port, feed, workloads.WARM_CONNECTIONS, seconds)
    else:
        raise ValueError(f"{workload!r} is not a served workload")
    if seg.timed:
        seg.elapsed = (max(r.t_end for r in seg.timed)
                       - min(r.t_start for r in seg.timed))
    return seg


def fold_traces(server: Server, seg: Segment, fold: Fold) -> None:
    """Fetch and fold the merged traces of the timed requests.

    Every answer not served from the gateway cache is folded; gateway
    hits are stride-sampled to at most :data:`HIT_TRACE_SAMPLE`, each
    weighted by the hits it stands for.
    """
    hits = [r for r in seg.timed if r.doc.get("cache") == "gateway"]
    others = [r for r in seg.timed if r.doc.get("cache") != "gateway"]
    stride = max(1, -(-len(hits) // HIT_TRACE_SAMPLE))
    sampled = hits[::stride]
    weight = len(hits) / len(sampled) if sampled else 0.0
    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        for rec, w in [(r, 1.0) for r in others] + [(r, weight) for r in sampled]:
            job_id = rec.doc.get("job_id")
            if not job_id:
                continue
            conn.request("GET", f"/v1/jobs/{job_id}/trace")
            resp = conn.getresponse()
            raw = resp.read()
            if resp.status != 200:
                continue
            trace = json.loads(raw)
            spans = [dict(sp) for sp in trace.get("spans", ())]
            # The benchmark's own root span, send to full response, on
            # the trace's wall-clock axis (merged span ids start at 1).
            t0 = rec.send_wall - trace.get("t_base_wall", rec.send_wall)
            root = {"id": 0, "name": "client", "cat": "bench",
                    "t0": t0, "t1": t0 + rec.latency}
            for sp in spans:
                if sp.get("parent") is None:
                    sp["parent"] = 0
            fold.add(spans + [root], rec.latency, weight=w, scale=rec.scale)
    finally:
        conn.close()


def memo_hit_ratio(server: Server) -> float:
    """Rectangle-memo hit ratio summed over the workers (``/metrics``)."""
    _, doc = http_get(server.host, server.port, "/metrics")
    rect = doc.get("rect_search") or {}
    hits = rect.get("rect_memo_hits", 0)
    misses = rect.get("rect_memo_misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def cache_shares(records: List[Record]) -> Dict[str, float]:
    """Share of answers from each cache tier (``cache`` field)."""
    tiers = ("gateway", "coalesced", "disk", "memory", "computed")
    counts = {t: 0 for t in tiers}
    for rec in records:
        tier = rec.doc.get("cache")
        if tier in counts:
            counts[tier] += 1
    n = len(records) or 1
    return {f"serve.cache.{t}_share": counts[t] / n for t in tiers}


def generate_ms(records: List[Record]) -> float:
    """Input-generation milliseconds per request (each distinct input
    circuit counted once), at reference speed."""
    distinct = {}
    for rec in records:
        distinct[rec.item.key] = rec.item.gen_s * rec.scale
    return 1e3 * rate(sum(distinct.values()), len(records))


def latency_metrics(seg: Segment, norm: bool) -> Dict[str, float]:
    """Median, tail and throughput of the timed requests, measured or at
    reference speed."""
    lat = [r.norm_latency if norm else r.latency for r in seg.timed] or [0.0]
    scale = statistics.mean(r.scale for r in seg.timed) if norm and seg.timed else 1.0
    return {
        "latency_p50_ms": 1e3 * percentile(lat, 50),
        "latency_p90_ms": 1e3 * percentile(lat, 90),
        "throughput_jobs_s": rate(len(seg.timed), seg.elapsed * scale),
    }


def run_served(workload: str, seed: int, seconds: float, trace: bool,
               work_dir: Path) -> dict:
    """One run of a served workload; returns the result fields."""
    log = work_dir / "serve.log"
    live: List[Server] = []

    def launch(name: str, traced: bool) -> Tuple[Server, float, float]:
        srv = Server(work_dir / name, traced, log)
        live.append(srv)
        return (srv,) + timed_launch(srv.start)

    def stop(srv: Server) -> None:
        live.remove(srv)
        srv.stop()

    try:
        if not trace:
            setups: List[Tuple[float, float]] = []
            for n in range(SETUP_LAUNCHES - 1):
                srv, took, norm = launch(f"setup{n}", False)
                setups.append((took, norm))
                stop(srv)
            srv, took, norm = launch("load", False)
            setups.append((took, norm))
            seg = drive(srv, workload, seed, seconds)
            rss = srv.peak_rss_mb()
            stop(srv)
            metrics = latency_metrics(seg, norm=True)
            metrics.update({
                "setup_s": percentile([n for _, n in setups], 50),
                "peak_rss_mb": rss,
                "lc_ratio": lc_ratio(seg.quality),
            })
            measured = latency_metrics(seg, norm=False)
            measured["setup_s"] = percentile([t for t, _ in setups], 50)
            segments = [seg]
        else:
            # Tracing overhead: the same request stream on an untraced
            # server, then on a traced one, half the time each.
            plain_srv, _, _ = launch("plain", False)
            plain = drive(plain_srv, workload, seed, seconds / 2.0)
            stop(plain_srv)
            srv, _, _ = launch("traced", True)
            seg = drive(srv, workload, seed, seconds / 2.0)
            fold = Fold()
            fold_traces(srv, seg, fold)
            memo = memo_hit_ratio(srv)
            stop(srv)
            n = min(len(plain.timed), len(seg.timed))
            plain_s = sum(r.norm_latency for r in plain.timed[:n])
            traced_s = sum(r.norm_latency for r in seg.timed[:n])
            metrics = fold.metrics()
            metrics.update(cache_shares(seg.timed))
            metrics.update({
                "circuits.generate.ms": generate_ms(seg.timed),
                "obs.trace_overhead": rate(traced_s, plain_s) - 1.0,
                "rectangles.memo.hit_ratio": memo,
                "machine.virtual_speedup": 0.0,
            })
            # Operation counts come from in-process cost meters, which
            # the serving tier does not ship.
            metrics.update(dict.fromkeys(
                (m["name"] for m in load_spec()["per_layer"] if m["unit"] == "count"),
                0.0))
            measured = latency_metrics(seg, norm=False)
            segments = [plain, seg]
    finally:
        for srv in list(live):
            stop(srv)
    errors: List[str] = []
    verdicts: Dict = {}
    attempted = 0
    for s in segments:
        records = s.warmup + s.timed
        attempted += len(records)
        errors.extend(check_records(records, verdicts))
    measured["scale"] = statistics.mean(r.scale for r in seg.timed) if seg.timed else 1.0
    return {"attempted": attempted, "failed": len(errors), "errors": errors[:5],
            "metrics": metrics, "measured": measured,
            "timed_jobs": sum(len(s.timed) for s in segments)}
