"""``xfdetector doctor``: post-crash hygiene for hosts running the
detection service.

A SIGKILL'd daemon (or a chaos-killed worker) can leave three kinds of
litter behind, none of which any surviving process will ever clean:

* **shared-memory segments** — ``multiprocessing.shared_memory``
  files under ``/dev/shm`` (``psm_*``) whose creating executor died
  before unlinking; detected by checking whether *any* live process
  still maps them (``/proc/*/maps``, Linux only);
* **stale daemon records** — a ``daemon.json`` advertising
  ``serving`` for a pid that no longer exists;
* **abandoned job litter** — shard journals, heartbeats, and merged
  journals of jobs whose record is terminal (the report is kept; the
  journals are only needed while a job can still resume), plus job
  directories with no readable state record at all.

``diagnose`` only reports; ``clean_findings`` unlinks what is safe —
never the reports, specs, or state of unfinished jobs.
"""

from __future__ import annotations

import os
import sys

#: Default name prefix of ``multiprocessing.shared_memory`` segments.
SHM_PREFIX = "psm_"

#: Where POSIX shared-memory segments live on Linux.
SHM_DIR = "/dev/shm"


def _mapped_shm_names(shm_dir):
    """Names under ``shm_dir`` mapped by at least one live process
    (Linux)."""
    marker = os.path.join(shm_dir, "")
    mapped = set()
    try:
        pids = [p for p in os.listdir("/proc") if p.isdigit()]
    except OSError:
        return None  # no procfs: cannot decide orphan-ness
    for pid in pids:
        try:
            with open(f"/proc/{pid}/maps") as handle:
                for line in handle:
                    if marker not in line:
                        continue
                    name = line.rsplit(marker, 1)[1].strip()
                    mapped.add(name.split(" ")[0])
        except OSError:
            continue  # raced an exit, or no permission: skip
    return mapped


def find_orphan_segments(shm_dir=SHM_DIR):
    """Segments under ``shm_dir`` with the python prefix that no live
    process maps.  Empty off-Linux (or without procfs) — without the
    maps evidence nothing is provably an orphan."""
    if not sys.platform.startswith("linux"):
        return []
    if not os.path.isdir(shm_dir):
        return []
    mapped = _mapped_shm_names(shm_dir)
    if mapped is None:
        return []
    orphans = []
    our_uid = os.getuid()
    for name in sorted(os.listdir(shm_dir)):
        if not name.startswith(SHM_PREFIX) or name in mapped:
            continue
        path = os.path.join(shm_dir, name)
        try:
            stat = os.stat(path)
        except OSError:
            continue
        if stat.st_uid != our_uid:
            continue  # never offer to unlink another user's segment
        orphans.append({"kind": "shm_segment", "path": path,
                        "bytes": stat.st_size})
    return orphans


def _job_litter(store, job_id, record):
    """Removable files of one terminal job."""
    job_dir = store.job_dir(job_id)
    litter = []
    shards_dir = os.path.join(job_dir, "shards")
    if os.path.isdir(shards_dir):
        for name in sorted(os.listdir(shards_dir)):
            litter.append(os.path.join(shards_dir, name))
    merged = store.merged_journal_path(job_id)
    if os.path.exists(merged):
        litter.append(merged)
    return [
        {"kind": "job_litter", "path": path, "job": job_id,
         "state": record.state}
        for path in litter
    ]


def diagnose(state_dir=None, shm_dir=SHM_DIR):
    """All findings for one host (and optionally one state dir).

    ``shm_dir`` is where shared-memory segments are scanned; tests
    point it at a private directory so they never see (or clean) the
    host's live segments."""
    findings = list(find_orphan_segments(shm_dir))
    # Segments this very process created and still owns are *live*,
    # not leaks — but a doctor run inside a detection process is a
    # debugging aid, so surface them as informational.
    from repro.exec.shm import live_segments

    for name in live_segments():
        findings.append({
            "kind": "live_segment_here",
            "path": os.path.join(shm_dir, name),
            "note": "created by this process; not removable",
        })
    if state_dir is None:
        return findings
    from repro.service.daemon import daemon_alive, read_daemon_info
    from repro.service.jobstore import JobStore

    store = JobStore(state_dir)
    info = read_daemon_info(state_dir)
    if info is not None and info.get("state") == "serving" \
            and not daemon_alive(info):
        findings.append({
            "kind": "stale_daemon",
            "path": store.daemon_path(),
            "pid": info.get("pid"),
        })
    daemon_running = daemon_alive(info)
    jobs_dir = os.path.join(store.root, "jobs")
    known = set(store.list_jobs())
    for name in sorted(os.listdir(jobs_dir)) \
            if os.path.isdir(jobs_dir) else []:
        if name not in known:
            findings.append({
                "kind": "orphan_job_dir",
                "path": os.path.join(jobs_dir, name),
                "note": "no readable state record",
            })
    for job_id in known:
        try:
            record = store.load(job_id)
        except (OSError, ValueError):
            continue
        if record.finished:
            findings.extend(_job_litter(store, job_id, record))
        elif not daemon_running:
            findings.append({
                "kind": "resumable_job", "job": job_id,
                "path": store.state_path(job_id),
                "state": record.state,
                "note": "no daemon running; will resume on next serve",
            })
    return findings


#: Finding kinds ``--clean`` may remove.  ``resumable_job`` and
#: ``live_segment_here`` are informational; ``orphan_job_dir`` needs a
#: human (it could be a partially-created submit racing us).
CLEANABLE = frozenset({"shm_segment", "job_litter", "stale_daemon"})


def clean_findings(findings):
    """Unlink every cleanable finding; returns (removed, kept)."""
    import shutil

    removed, kept = [], []
    for finding in findings:
        if finding["kind"] not in CLEANABLE:
            kept.append(finding)
            continue
        path = finding["path"]
        try:
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.unlink(path)
        except OSError:
            kept.append(finding)
        else:
            removed.append(finding)
    return removed, kept
