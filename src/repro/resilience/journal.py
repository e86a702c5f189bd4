"""Resumable run journal: NDJSON checkpointing of completed outcomes.

A detection run with ``--journal PATH`` appends one record per
*completed* failure-point outcome — the bugs its checked recovery
found, the benign-race count, the number of operations it issued, and
the recovery crash (if any) — under a header carrying a
**config+trace checksum**.  ``run --resume PATH`` re-runs the cheap
deterministic pre-failure stage, recomputes the checksum, refuses a
journal recorded for a different workload, sizing, configuration, or
code revision, and then skips the post-failure run of every journaled
point, splicing the stored bugs back into the report
byte-identically.  A killed
30-minute run resumes as an incremental one.

Quarantined points are deliberately never journaled: a resume retries
them, so a transient fault absorbed in run 1 self-heals in run 2.

Record types: one ``{"type": "header", ...}`` line, then
``{"type": "post", ...}`` lines.  Every write is flushed so a killed
process loses at most the record being written; with
``journal_fsync`` (``XFD_JOURNAL_FSYNC``) the file is also fsync'd —
every ``journal_fsync_batch`` records — so progress survives host
power loss.  A torn *final* line (the record being written when the
writer was killed) is silently dropped on resume; corruption anywhere
else still raises :class:`JournalError`.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro._location import UNKNOWN_LOCATION, _make_location
from repro.core.report import Bug, BugKind
from repro.errors import JournalError, JournalMismatchError

JOURNAL_VERSION = 1

#: Config fields that change what a run detects (and therefore what a
#: journal entry means).  Scheduling knobs (jobs, batch_size, the
#: service's ``failure_point_window``) and resilience knobs are
#: deliberately excluded: reports are byte-identical across them, and
#: the exclusion is what lets every shard of one service job write
#: journals that merge into a single resumable run.
_CHECKSUM_FIELDS = (
    "inject_failures", "crash_image_mode", "platform",
    "trust_allocator_zeroing", "first_read_only",
    "skip_empty_failure_points", "report_perf_bugs",
    "crash_state_variants", "max_failure_points",
)


#: Path fragment identifying workload code for the checksum's source-
#: location digest (see :func:`_digest_ip`).
_WORKLOAD_FRAGMENT = os.path.join("repro", "workloads") + os.sep


#: SourceLocation -> digest string.  Locations are interned (one object
#: per distinct call site, see ``repro._location.intern_location``), so
#: a trace with tens of thousands of events hits a handful of entries;
#: keying by the location object keeps it alive, which keeps the memo
#: valid even if the intern table is ever cleared.
_DIGEST_MEMO = {}


def _digest_ip(ip):
    """The checksum's view of one event's source location.

    Only workload frames are digested: a handful of engine-issued
    events (pool setup, ROI markers) attribute to the innermost frame
    *outside* the runtime — the CLI, a test, or the service's shard
    driver — and hashing those call sites would make the checksum
    depend on who drove the run, breaking the service's shard/merge
    journal sharing.  Workload code is what a resume must not silently
    change, and it is exactly what stays in the digest.
    """
    digest = _DIGEST_MEMO.get(ip)
    if digest is None:
        if _WORKLOAD_FRAGMENT in ip.filename:
            digest = f"{ip.basename}:{ip.lineno}:{ip.function}"
        else:
            digest = "<engine>"
        _DIGEST_MEMO[ip] = digest
    return digest


def run_checksum(config, workload_name, pre_recorder):
    """SHA-256 over the detection-relevant config and the pre-failure
    trace.

    The pre-trace digest covers every event's kind, address, size,
    info, thread, and workload source location — any change to the
    workload, its sizing or faults, or the traced code itself lands
    here, so a stale journal cannot be spliced into a run it no longer
    describes.  Driver call sites are normalized out
    (:func:`_digest_ip`): the same job checksums identically whether
    the CLI, a test, or a service shard ran it.
    """
    digest = hashlib.sha256()
    digest.update(f"journal-v{JOURNAL_VERSION}\n".encode())
    digest.update(f"workload={workload_name}\n".encode())
    for field in _CHECKSUM_FIELDS:
        value = getattr(config, field, None)
        value = getattr(value, "value", value)
        digest.update(f"{field}={value}\n".encode())
    for event in pre_recorder:
        digest.update(
            f"{event.kind.name}|{event.addr}|{event.size}|"
            f"{event.info}|{event.tid}|{_digest_ip(event.ip)}\n"
            .encode()
        )
    return digest.hexdigest()


def read_journal_records(path):
    """Tolerantly read one journal file: ``(header, posts)``.

    ``header`` is the header record dict and ``posts`` maps
    ``(fid, variant)`` to post records, later lines winning.  A
    malformed **final** line is dropped (the writer was killed
    mid-write — the torn tail of a SIGKILL'd shard); malformed lines
    anywhere else, a missing header, or an unreadable file raise
    :class:`JournalError`.  This is the read path shared by resume
    and by the service's shard-journal merge.
    """
    try:
        with open(path) as handle:
            lines = [line for line in handle if line.strip()]
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    if not lines:
        raise JournalError(f"journal {path} is empty (no header)")
    records = []
    for index, line in enumerate(lines):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if index == len(lines) - 1:
                break  # torn tail: the record being written at kill
            raise JournalError(
                f"journal {path} is not valid NDJSON at line "
                f"{index + 1}: {exc}"
            ) from exc
    if not records:
        raise JournalError(
            f"journal {path} has no complete records (torn header)"
        )
    header = records[0]
    if header.get("type") != "header":
        raise JournalError(
            f"journal {path} does not start with a header record"
        )
    if header.get("version") != JOURNAL_VERSION:
        raise JournalError(
            f"journal {path} has version {header.get('version')!r}, "
            f"expected {JOURNAL_VERSION}"
        )
    posts = {}
    for record in records[1:]:
        if record.get("type") != "post":
            continue
        posts[(record["fid"], record["variant"])] = record
    return header, posts


#: Directory of the running ``repro`` package.  Journaled call sites
#: inside it are stored relative to it, under :data:`_PACKAGE_MARK`,
#: and resolved against the running package on load: ``Bug.dedup_key``
#: compares filenames, so absolute ones would split a bug resumed from
#: another checkout directory from the same bug found fresh.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PACKAGE_MARK = "<repro>/"


def _location_to_list(location):
    if location is UNKNOWN_LOCATION:
        return None
    filename = location.filename
    if filename.startswith(_PACKAGE_DIR + os.sep):
        relative = os.path.relpath(filename, _PACKAGE_DIR)
        filename = _PACKAGE_MARK + relative.replace(os.sep, "/")
    return [filename, location.lineno, location.function]


def _location_from_list(value):
    if value is None:
        return UNKNOWN_LOCATION
    filename = value[0]
    if filename.startswith(_PACKAGE_MARK):
        # Paths outside the package, and every path a journal written
        # before package-relative paths holds, are absolute: as-is.
        filename = os.path.join(
            _PACKAGE_DIR, *filename[len(_PACKAGE_MARK):].split("/")
        )
    return _make_location(filename, value[1], value[2])


def serialize_bug(bug):
    """A journal-ready dict preserving every :class:`Bug` field."""
    return {
        "kind": bug.kind.value,
        "detail": bug.detail,
        "address": bug.address,
        "size": bug.size,
        "failure_point": bug.failure_point,
        "reader": _location_to_list(bug.reader_ip),
        "writer": _location_to_list(bug.writer_ip),
    }


def deserialize_bug(data):
    """Rebuild a :class:`Bug` byte-identical to the recorded one."""
    return Bug(
        kind=BugKind(data["kind"]),
        detail=data["detail"],
        address=data["address"],
        size=data["size"],
        failure_point=data["failure_point"],
        reader_ip=_location_from_list(data["reader"]),
        writer_ip=_location_from_list(data["writer"]),
    )


class RunJournal:
    """One run's journal: write-through on completion, read on resume.

    ``path`` is where this run records; ``resume_path`` (often the
    same file) is a previous run's journal to validate and continue
    from.  Lifecycle: construct, then :meth:`begin` once the
    pre-failure trace (and therefore the checksum) is known, then
    :meth:`record_post` per newly completed point, then
    :meth:`close`.
    """

    def __init__(self, path, resume_path=None, *, fsync=False,
                 fsync_batch=1):
        self.path = path
        self.resume_path = resume_path
        self.fsync = fsync
        self.fsync_batch = max(1, fsync_batch)
        self.checksum = None
        self.workload = None
        #: (fid, variant) -> journal entry dict, loaded at begin().
        self.entries = {}
        self._handle = None
        self._unsynced = 0

    @classmethod
    def from_config(cls, config):
        """The journal for one run, or None when neither
        ``config.journal`` nor ``config.resume`` is set.  Resuming
        without an explicit journal path continues appending to the
        resumed file."""
        journal_path = getattr(config, "journal", None)
        resume_path = getattr(config, "resume", None)
        if not journal_path and not resume_path:
            return None
        return cls(
            journal_path or resume_path, resume_path,
            fsync=getattr(config, "journal_fsync", False),
            fsync_batch=getattr(config, "journal_fsync_batch", 1),
        )

    # -- lifecycle -------------------------------------------------------

    def begin(self, checksum, workload_name):
        """Validate the resume journal (if any) against ``checksum``
        and open this run's journal for appending.

        Raises :class:`JournalMismatchError` when the resumed journal
        was recorded under a different checksum, and
        :class:`JournalError` when it is unreadable or malformed.
        """
        self.checksum = checksum
        self.workload = workload_name
        if self.resume_path:
            self._load_resume(checksum)
        appending = (
            self.resume_path
            and os.path.abspath(self.resume_path)
            == os.path.abspath(self.path)
        )
        try:
            self._handle = open(self.path, "a" if appending else "w")
        except OSError as exc:
            raise JournalError(
                f"cannot open journal {self.path}: {exc}"
            ) from exc
        if not appending:
            self._write({
                "type": "header", "version": JOURNAL_VERSION,
                "checksum": checksum, "workload": workload_name,
            })
            # Carry resumed entries forward so the new journal is
            # complete on its own.
            for entry in self.entries.values():
                self._write(entry)

    def _load_resume(self, checksum):
        header, posts = read_journal_records(self.resume_path)
        if header.get("checksum") != checksum:
            raise JournalMismatchError(
                f"journal {self.resume_path} was recorded for a "
                f"different run (checksum {header.get('checksum')!r} "
                f"!= {checksum!r}); refusing to splice its outcomes"
            )
        self.entries.update(posts)

    def _write(self, record):
        self._handle.write(json.dumps(record, default=str) + "\n")
        self._handle.flush()
        if not self.fsync:
            return
        self._unsynced += 1
        if self._unsynced >= self.fsync_batch:
            os.fsync(self._handle.fileno())
            self._unsynced = 0

    # -- queries ---------------------------------------------------------

    def entry_for(self, fid, variant):
        """The completed entry for this point, or None."""
        return self.entries.get((fid, variant))

    def __len__(self):
        return len(self.entries)

    # -- recording --------------------------------------------------------

    def record_post(self, fid, variant, *, events, has_roi, crash_repr,
                    bugs, benign_races):
        """Append one completed failure-point outcome (idempotent: a
        point already journaled — e.g. spliced from the resume file —
        is not written twice)."""
        key = (fid, variant)
        if key in self.entries:
            return self.entries[key]
        entry = {
            "type": "post",
            "fid": fid,
            "variant": variant,
            "events": events,
            "has_roi": has_roi,
            "crash": crash_repr,
            "bugs": [serialize_bug(bug) for bug in bugs],
            "benign_races": benign_races,
        }
        self.entries[key] = entry
        if self._handle is not None:
            self._write(entry)
        return entry

    def close(self):
        if self._handle is not None:
            if self.fsync and self._unsynced:
                os.fsync(self._handle.fileno())
                self._unsynced = 0
            self._handle.close()
            self._handle = None
