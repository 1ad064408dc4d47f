"""Durability for the serving tier: the job journal and ``fsck``.

The gateway's job registry is in-memory: before this module, a gateway
crash silently lost every accepted 202 job.  :class:`JobJournal` is the
write-ahead complement — an append-only log of job lifecycle records
(schema :data:`JOURNAL_SCHEMA`) under ``<cache_dir>/journal/`` that the
gateway replays on startup, re-submitting every job that was accepted
but never finished.  Replay is idempotent by construction: jobs are
re-keyed by the same canonical digest the caches use, so a replayed job
whose computation already landed in the shared
:class:`~repro.serve.diskcache.DiskCache` answers immediately.  Jobs
that *finished successfully* before the crash are restored the same way
(their results come straight from the disk cache), so ``GET
/v1/jobs/<id>`` keeps working across a kill -9 for clients that had not
collected their answer yet.

Journal layout and semantics
----------------------------
::

    <cache_dir>/journal/VERSION          # "repro.jobs/1"
    <cache_dir>/journal/seg-000001.jsonl # oldest segment
    <cache_dir>/journal/seg-000007.jsonl # active (highest-numbered)

Each line is one JSON record::

    {"schema": "repro.jobs/1", "type": "accepted", "job_id": "j000004",
     "seq": 4, "key": "<canonical digest>", "tenant": "t0",
     "body": {...original request document...}}
    {"schema": "repro.jobs/1", "type": "dispatched", "job_id": "j000004",
     "worker": 1}
    {"schema": "repro.jobs/1", "type": "done", "job_id": "j000004",
     "status": "done"}

Appends go to the highest-numbered segment through one ``O_APPEND``
handle; ``fsync`` is batched (every :attr:`JobJournal.fsync_every`
records, plus on rotation and close), trading a bounded tail of
re-computable records for not paying a sync per request.  A torn final
record — the classic kill -9 artifact — is detected at replay (the line
fails to parse) and skipped, never poisoning the rest of the log.

Segments rotate at :attr:`JobJournal.segment_records` records, and
``compact()`` deletes every non-active segment whose mentioned jobs are
all globally ``done`` — so a quiet gateway's journal collapses to one
small active segment no matter how long it has run.

fsck
----
:func:`fsck_scan` walks **every** schema directory under a cache root —
the result cache (``repro-servecache/1``), any other DiskCache tenant
(they share one on-disk shape), and the job
journal — reporting corrupt entries, schema/key mismatches, orphaned
temp files, and torn journal records.  With ``repair=True`` it
quarantines corrupt entries under ``<schema-dir>/quarantine/``, deletes
orphaned temp files, and rewrites damaged journal segments keeping the
parseable prefix of records.  ``repro fsck CACHE_DIR [--repair]`` is
the CLI face.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, IO, List, Optional, Set

__all__ = [
    "JOURNAL_SCHEMA",
    "JobJournal",
    "JournalReplay",
    "fsck_scan",
    "render_fsck_report",
]

#: Journal record format version.  Bump on incompatible record-shape
#: changes; old segments are then ignored at replay, never misparsed.
JOURNAL_SCHEMA = "repro.jobs/1"

_SEG_PREFIX = "seg-"
_SEG_SUFFIX = ".jsonl"


@dataclass
class JournalReplay:
    """What :meth:`JobJournal.replay` found on disk."""

    #: accepted records (full dicts, seq order) with no ``done`` record.
    unfinished: List[Dict[str, Any]] = field(default_factory=list)
    #: accepted records that completed successfully (``done`` with
    #: status ``done``) — replayed so ``GET /v1/jobs/<id>`` survives a
    #: restart, answering from the disk cache.
    finished: List[Dict[str, Any]] = field(default_factory=list)
    #: highest ``seq`` seen across all records (-1 when empty).
    max_seq: int = -1
    #: total well-formed records read.
    records: int = 0
    #: undecodable lines skipped (torn writes).
    torn: int = 0
    #: segments scanned.
    segments: int = 0


class JobJournal:
    """Append-only job lifecycle log with rotation and compaction.

    One writer (the gateway's event loop) appends; replay happens
    before the writer starts, so no reader/writer races exist by
    design.  All methods are nonetheless lock-guarded — the gateway's
    executor threads may trigger ``close()``.
    """

    def __init__(self, root: os.PathLike, fsync_every: int = 8,
                 segment_records: int = 256):
        self.dir = Path(root) / "journal"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.fsync_every = max(1, fsync_every)
        self.segment_records = max(8, segment_records)
        version_file = self.dir / "VERSION"
        if not version_file.exists():
            try:
                version_file.write_text(JOURNAL_SCHEMA + "\n")
            except OSError:
                pass
        self._lock = threading.Lock()
        self._fh: Optional[IO[str]] = None
        self._active_records = 0
        self._since_fsync = 0
        self._done: Set[str] = set()
        self.appends = 0
        self.fsyncs = 0
        self.rotations = 0
        self.segments_compacted = 0
        self.write_errors = 0
        existing = self._segments()
        self._active_index = (
            int(existing[-1].name[len(_SEG_PREFIX):-len(_SEG_SUFFIX)])
            if existing else 1
        )

    # ------------------------------------------------------------------
    # segment bookkeeping
    # ------------------------------------------------------------------

    def _segments(self) -> List[Path]:
        """All segment paths, oldest first."""
        return sorted(
            p for p in self.dir.glob(f"{_SEG_PREFIX}*{_SEG_SUFFIX}")
            if p.is_file()
        )

    def _seg_path(self, index: int) -> Path:
        return self.dir / f"{_SEG_PREFIX}{index:06d}{_SEG_SUFFIX}"

    def _open_active(self) -> Optional[IO[str]]:
        if self._fh is None:
            try:
                self._fh = open(self._seg_path(self._active_index), "a")
            except OSError:
                self.write_errors += 1
                return None
        return self._fh

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def append(self, rtype: str, job_id: str, **extra: Any) -> None:
        """Append one record; never raises.

        A failing disk degrades durability (the record is dropped and
        counted in ``write_errors``) but must not fail the request —
        exactly the DiskCache contract.
        """
        record = {"schema": JOURNAL_SCHEMA, "type": rtype,
                  "job_id": job_id}
        record.update(extra)
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            fh = self._open_active()
            if fh is None:
                return
            try:
                fh.write(line)
                fh.flush()
            except OSError:
                self.write_errors += 1
                return
            self.appends += 1
            self._active_records += 1
            self._since_fsync += 1
            if rtype == "done":
                self._done.add(job_id)
            if self._since_fsync >= self.fsync_every:
                self._fsync_locked()
            if self._active_records >= self.segment_records:
                self._rotate_locked()

    def _fsync_locked(self) -> None:
        if self._fh is None or self._since_fsync == 0:
            return
        try:
            os.fsync(self._fh.fileno())
            self.fsyncs += 1
        except OSError:
            self.write_errors += 1
        self._since_fsync = 0

    def _rotate_locked(self) -> None:
        self._fsync_locked()
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None
        self._active_index += 1
        self._active_records = 0
        self.rotations += 1
        self._compact_locked()

    def flush(self) -> None:
        """Force an fsync of everything appended so far."""
        with self._lock:
            self._fsync_locked()

    def close(self) -> None:
        with self._lock:
            self._fsync_locked()
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:
                    pass
                self._fh = None

    # ------------------------------------------------------------------
    # replay / compaction
    # ------------------------------------------------------------------

    @staticmethod
    def _read_segment(path: Path, replay: JournalReplay) -> List[Dict]:
        records: List[Dict[str, Any]] = []
        try:
            with open(path) as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rec = json.loads(line)
                    except ValueError:
                        replay.torn += 1
                        continue
                    if (not isinstance(rec, dict)
                            or rec.get("schema") != JOURNAL_SCHEMA
                            or "type" not in rec or "job_id" not in rec):
                        replay.torn += 1
                        continue
                    records.append(rec)
        except OSError:
            pass
        return records

    def replay(self) -> JournalReplay:
        """Scan every segment and report unfinished accepted jobs.

        Call before the first ``append`` (the gateway replays during
        startup).  Also seeds the in-memory done-set compaction uses.
        """
        replay = JournalReplay()
        accepted: "Dict[str, Dict[str, Any]]" = {}
        done_status: Dict[str, str] = {}
        for seg in self._segments():
            replay.segments += 1
            for rec in self._read_segment(seg, replay):
                replay.records += 1
                seq = rec.get("seq")
                if isinstance(seq, int):
                    replay.max_seq = max(replay.max_seq, seq)
                if rec["type"] == "accepted":
                    accepted.setdefault(rec["job_id"], rec)
                elif rec["type"] == "done":
                    # A job may carry several done records (e.g. a
                    # replay-failure marker followed by a real answer);
                    # a successful one wins.
                    if done_status.get(rec["job_id"]) != "done":
                        done_status[rec["job_id"]] = str(
                            rec.get("status", "done"))
        with self._lock:
            self._done |= set(done_status)
        by_seq = lambda rec: rec.get("seq", 0)  # noqa: E731
        replay.unfinished = sorted(
            (rec for job_id, rec in accepted.items()
             if job_id not in done_status),
            key=by_seq,
        )
        replay.finished = sorted(
            (rec for job_id, rec in accepted.items()
             if done_status.get(job_id) == "done"),
            key=by_seq,
        )
        return replay

    def compact(self) -> int:
        """Delete fully-resolved non-active segments; returns the count."""
        with self._lock:
            return self._compact_locked()

    def _compact_locked(self) -> int:
        removed = 0
        active = self._seg_path(self._active_index)
        for seg in self._segments():
            if seg == active:
                continue
            replay = JournalReplay()
            records = self._read_segment(seg, replay)
            jobs = {rec["job_id"] for rec in records}
            if replay.torn == 0 and jobs <= self._done:
                try:
                    seg.unlink()
                    removed += 1
                except OSError:
                    self.write_errors += 1
        self.segments_compacted += removed
        return removed

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "schema": JOURNAL_SCHEMA,
                "dir": str(self.dir),
                "segments": len(self._segments()),
                "active_records": self._active_records,
                "appends": self.appends,
                "fsyncs": self.fsyncs,
                "rotations": self.rotations,
                "segments_compacted": self.segments_compacted,
                "write_errors": self.write_errors,
                "done_tracked": len(self._done),
            }


# ----------------------------------------------------------------------
# fsck
# ----------------------------------------------------------------------


def _fsck_objects_tree(schema_dir: Path, schema: str, repair: bool,
                       report: Dict[str, Any]) -> None:
    """Validate one DiskCache-shaped ``objects/`` tree."""
    objects = schema_dir / "objects"
    if not objects.is_dir():
        return
    quarantine = schema_dir / "quarantine"
    for bucket in sorted(objects.iterdir()):
        if not bucket.is_dir():
            continue
        for entry in sorted(bucket.iterdir()):
            name = entry.name
            if name.startswith(".") and name.endswith(".tmp"):
                issue = _issue(report, "orphan-tmp", entry,
                               "orphaned temp file from an interrupted write")
                if repair:
                    try:
                        entry.unlink()
                        _repaired(report, issue, "deleted")
                    except OSError as exc:
                        issue["repair_error"] = str(exc)
                continue
            if entry.suffix != ".json":
                continue
            report["checked_files"] += 1
            problem = None
            try:
                with open(entry) as fh:
                    envelope = json.load(fh)
            except (OSError, ValueError) as exc:
                problem = f"unreadable/undecodable: {exc}"
                envelope = None
            if envelope is not None and (
                not isinstance(envelope, dict)
                or envelope.get("schema") != schema
                or envelope.get("key") != entry.stem
                or "doc" not in envelope
            ):
                problem = "envelope mismatch (schema/key/doc)"
            if problem is None:
                continue
            issue = _issue(report, "corrupt-entry", entry, problem)
            if repair:
                try:
                    quarantine.mkdir(exist_ok=True)
                    os.replace(entry, quarantine / entry.name)
                    _repaired(report, issue, "quarantined")
                except OSError as exc:
                    issue["repair_error"] = str(exc)


def _fsck_journal(journal_dir: Path, repair: bool,
                  report: Dict[str, Any]) -> None:
    """Validate journal segments; repair rewrites the parseable prefix."""
    for seg in sorted(journal_dir.glob(f"{_SEG_PREFIX}*{_SEG_SUFFIX}")):
        report["checked_files"] += 1
        good: List[str] = []
        bad = 0
        try:
            with open(seg) as fh:
                lines = fh.readlines()
        except OSError as exc:
            _issue(report, "corrupt-segment", seg, f"unreadable: {exc}")
            continue
        for line in lines:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                rec = json.loads(stripped)
                ok = (isinstance(rec, dict)
                      and rec.get("schema") == JOURNAL_SCHEMA
                      and "type" in rec and "job_id" in rec)
            except ValueError:
                ok = False
            if ok:
                good.append(stripped)
            else:
                bad += 1
        if bad == 0:
            continue
        issue = _issue(
            report, "torn-journal", seg,
            f"{bad} unparseable record(s), {len(good)} intact")
        if repair:
            try:
                fd, tmp = tempfile.mkstemp(
                    dir=str(journal_dir), prefix=".fsck.", suffix=".tmp")
                with os.fdopen(fd, "w") as fh:
                    for line in good:
                        fh.write(line + "\n")
                os.replace(tmp, seg)
                _repaired(report, issue, "rewrote intact records")
            except OSError as exc:
                issue["repair_error"] = str(exc)


def _issue(report: Dict[str, Any], kind: str, path: Path,
           detail: str) -> Dict[str, Any]:
    issue = {"kind": kind, "path": str(path), "detail": detail}
    report["issues"].append(issue)
    return issue


def _repaired(report: Dict[str, Any], issue: Dict[str, Any],
              action: str) -> None:
    issue["repaired"] = action
    report["repaired"].append(issue)


def fsck_scan(root: os.PathLike, repair: bool = False) -> Dict[str, Any]:
    """Scan (and optionally repair) every cache schema under *root*.

    Discovers schema directories structurally — a child directory with a
    ``VERSION`` file — so every DiskCache tenant (result cache, future
    schemas, leftovers of retired ones) is covered without a
    hard-coded list; the job journal's line-record format is handled
    specially.  Returns a report document; ``ok`` is True when the scan
    found no issues (pre-repair state — rerun after a repair to
    confirm a clean tree).
    """
    root = Path(root)
    report: Dict[str, Any] = {
        "root": str(root), "repair": repair, "schemas": [],
        "checked_files": 0, "issues": [], "repaired": [],
        "started": time.time(),
    }
    if root.is_dir():
        for child in sorted(root.iterdir()):
            version_file = child / "VERSION"
            if not child.is_dir() or not version_file.is_file():
                continue
            try:
                schema = version_file.read_text().strip()
            except OSError:
                continue
            report["schemas"].append({"dir": child.name, "schema": schema})
            if child.name == "journal" or schema == JOURNAL_SCHEMA:
                _fsck_journal(child, repair, report)
            else:
                _fsck_objects_tree(child, schema, repair, report)
    # Clean tree, or a repair pass that fixed everything it found: both
    # leave a servable cache behind, so both are ``ok`` (the CLI exit-0
    # contract for ``fsck --repair``).  Unrepaired findings are not.
    report["ok"] = all(
        issue.get("repaired") for issue in report["issues"]
    ) if repair else not report["issues"]
    report["elapsed"] = time.time() - report["started"]
    del report["started"]
    return report


def render_fsck_report(report: Dict[str, Any]) -> str:
    """Human-readable fsck summary for the CLI."""
    lines = [
        f"fsck {report['root']}: {len(report['schemas'])} schema dir(s), "
        f"{report['checked_files']} file(s) checked"
    ]
    for entry in report["schemas"]:
        lines.append(f"  schema {entry['schema']:<24} ({entry['dir']})")
    if not report["issues"]:
        lines.append("  clean: no issues found")
        return "\n".join(lines)
    for issue in report["issues"]:
        suffix = ""
        if issue.get("repaired"):
            suffix = f"  [repaired: {issue['repaired']}]"
        elif issue.get("repair_error"):
            suffix = f"  [repair failed: {issue['repair_error']}]"
        lines.append(
            f"  {issue['kind']:<16} {issue['path']}: {issue['detail']}"
            f"{suffix}"
        )
    repaired = len(report["repaired"])
    lines.append(
        f"  {len(report['issues'])} issue(s), {repaired} repaired"
    )
    return "\n".join(lines)
