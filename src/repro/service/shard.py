"""Shard execution: what one fleet worker runs for one task.

Three task bodies, all built on the one-shot pipeline rather than
beside it:

* :func:`run_probe` — run the cheap deterministic pre-failure stage
  with an empty shard window to learn the job's planned failure
  points; :func:`plan_shards` then cuts them into contiguous ranges
  with :func:`~repro.exec.base.plan_batches`.
* :func:`run_shard` — one full detection run restricted to
  ``lo <= fid < hi`` via ``failure_point_window``, journaling into the
  shard's own :class:`~repro.resilience.RunJournal` (resuming it if a
  previous attempt died mid-range) and heartbeating through a
  :class:`HeartbeatSink`.
* :func:`run_merge` — concatenate every shard journal into
  ``merged.journal`` (:func:`merge_shard_journals`; legal because the
  shard window is excluded from the journal checksum) and run the job
  once more over the *whole* plan resuming from it: journaled points
  splice in, points lost to abandoned shards execute live, and the
  resulting report is byte-identical to the one-shot CLI.

Every task body reuses the worker's persistent
:class:`~repro.exec.pool.WarmProcessExecutor` when one is passed in —
this is where warm pools finally amortize *across* runs.
"""

from __future__ import annotations

import json
import os
import time

from repro.core.detector import XFDetector, _deterministic_stats
from repro.core.frontend import Frontend
from repro.errors import JournalError
from repro.exec.base import plan_batches
from repro.obs import Telemetry
from repro.obs.live import LiveBus, EventStreamSink
from repro.resilience.journal import (
    JOURNAL_VERSION,
    read_journal_records,
)

#: Heartbeat-file update triggers: cadence from heartbeats, liveness
#: from real progress too (a busy shard beats on completions even if
#: its ticker thread is starved).
_BEAT_KINDS = frozenset({
    "run_started", "heartbeat", "phase_started", "phase_finished",
    "point_completed", "run_finished",
})


class HeartbeatSink:
    """Atomically rewrites a tiny JSON heartbeat file.

    The reaper (daemon side) only reads the file's mtime plus the
    progress counters for diagnostics — so the write is tmp+replace
    (readers never see a torn file) but deliberately *not* fsync'd:
    heartbeats are liveness, not durability.
    """

    def __init__(self, path):
        self.path = path
        self.beats = 0

    def handle(self, event):
        if event.kind not in _BEAT_KINDS:
            return
        payload = {
            "ts": event.ts,
            "kind": event.kind,
            "pid": os.getpid(),
            "data": {
                key: value for key, value in event.data.items()
                if isinstance(value, (int, float, str, bool))
            },
        }
        tmp = f"{self.path}.tmp.{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, self.path)
        self.beats += 1


def _shard_telemetry(run_id, events_path, heartbeat_path,
                     heartbeat_interval=1.0):
    """A run-scoped Telemetry whose bus streams into the job's event
    file and (optionally) a shard heartbeat file."""
    sinks = []
    if events_path:
        sinks.append(EventStreamSink(events_path))
    if heartbeat_path:
        sinks.append(HeartbeatSink(heartbeat_path))
    bus = LiveBus(
        sinks, run_id=run_id, heartbeat_interval=heartbeat_interval,
    )
    return Telemetry(bus=bus)


# ----------------------------------------------------------------------
# Probe + shard planning
# ----------------------------------------------------------------------


def run_probe(spec, run_id="probe", events_path=None):
    """The job's planned failure points, via a post-stage-free run.

    An empty window (``(0, 0)``) keeps the pre-failure stage — trace,
    injection, crash plans — intact while planning zero post keys, so
    the probe costs one pre-failure execution and no journal.
    """
    telemetry = _shard_telemetry(run_id, events_path, None)
    config = spec.detector_config(failure_point_window=(0, 0),
                                  telemetry=telemetry)
    try:
        telemetry.emit("run_started", workload=spec.workload,
                       jobs=1, executor="probe")
        result = Frontend(config, telemetry=telemetry).run(
            spec.build_workload()
        )
        fids = sorted(
            fp.fid for fp in result.failure_points
            if getattr(fp, "planned", True)
        )
        telemetry.emit("run_finished", workload=spec.workload,
                       findings=0, stats={"planned_points": len(fids)})
        return fids
    finally:
        telemetry.close()


def plan_shards(fids, shards):
    """Cut the planned fids into ``<= shards`` contiguous ``(lo, hi,
    points)`` ranges using the executor's own batcher, so shard
    boundaries follow the same contiguity discipline as batch
    dispatch."""
    fids = sorted(fids)
    if not fids:
        return []
    shards = max(1, min(int(shards), len(fids)))
    per_shard = -(-len(fids) // shards)  # ceil
    keys = [(fid, None, None) for fid in fids]
    ranges = []
    for batch in plan_batches(keys, per_shard):
        lo, hi = batch[0][0], batch[-1][0] + 1
        ranges.append((lo, hi, len(batch)))
    return ranges


# ----------------------------------------------------------------------
# One shard's detection run
# ----------------------------------------------------------------------


def _quarantine_corrupt(path):
    """Move an unreadable journal aside so the retry starts fresh."""
    corrupt = f"{path}.corrupt"
    try:
        os.replace(path, corrupt)
    except OSError:
        try:
            os.unlink(path)
        except OSError:
            pass
    return corrupt


def run_shard(spec, lo, hi, journal_path, *, run_id, events_path=None,
              heartbeat_path=None, executor=None,
              heartbeat_interval=1.0):
    """Run the job restricted to ``[lo, hi)``, journaling as it goes.

    A pre-existing shard journal (a reclaimed attempt's progress) is
    resumed; one that refuses to load is quarantined to ``.corrupt``
    and the shard reruns from scratch — progress is lost, results are
    not.  Returns a summary dict for the shard record.
    """
    resume = journal_path if os.path.exists(journal_path) else None
    for attempt in (1, 2):
        telemetry = _shard_telemetry(
            run_id, events_path, heartbeat_path, heartbeat_interval
        )
        config = spec.detector_config(
            failure_point_window=(lo, hi),
            journal=journal_path,
            resume=resume,
            telemetry=telemetry,
        )
        started = time.monotonic()
        try:
            telemetry.emit(
                "run_started", workload=spec.workload,
                jobs=getattr(executor, "jobs", 1),
                executor=getattr(executor, "kind", "serial"),
                window=[lo, hi],
            )
            result = Frontend(
                config, telemetry=telemetry, executor=executor
            ).run(spec.build_workload())
            report = XFDetector(config).analyze(result)
            telemetry.emit(
                "run_finished", workload=spec.workload,
                findings=len(report.bugs),
                stats=_deterministic_stats(report.stats),
            )
            _header, posts = read_journal_records(journal_path)
            return {
                "lo": lo, "hi": hi,
                "journaled": len(posts),
                "bugs": len(report.bugs),
                "degraded": report.degraded,
                "incidents": len(report.incidents),
                "seconds": time.monotonic() - started,
            }
        except JournalError:
            if attempt == 2 or resume is None:
                raise
            # The previous attempt's journal would not load (torn
            # beyond the tolerated tail, or a stale checksum from an
            # older revision): quarantine it and rerun clean.
            _quarantine_corrupt(journal_path)
            resume = None
        finally:
            if executor is not None:
                end_run = getattr(executor, "end_run", None)
                if end_run is not None:
                    end_run()
            telemetry.close()


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------


def merge_shard_journals(shard_paths, merged_path):
    """Concatenate shard journals into one resumable merged journal.

    All readable journals must agree on the checksum (they will: the
    shard window is excluded from it).  Posts from a pre-existing
    merged journal are kept — a merge run that died mid-way left its
    own progress there.  Unreadable journals are skipped (their ranges
    simply re-execute); a missing file means the shard never began.
    Returns ``(post_count, skipped_paths)``.
    """
    header = None
    posts = {}
    skipped = []
    sources = list(shard_paths)
    if os.path.exists(merged_path):
        sources.append(merged_path)
    for path in sources:
        if not os.path.exists(path):
            continue
        try:
            file_header, file_posts = read_journal_records(path)
        except JournalError:
            skipped.append(path)
            continue
        if header is None:
            header = file_header
        elif file_header.get("checksum") != header.get("checksum"):
            # A journal from a different run revision: its entries
            # would be refused at resume time anyway.
            skipped.append(path)
            continue
        posts.update(file_posts)
    if header is None:
        return 0, skipped
    tmp = f"{merged_path}.tmp.{os.getpid()}"
    with open(tmp, "w") as handle:
        handle.write(json.dumps({
            "type": "header", "version": JOURNAL_VERSION,
            "checksum": header["checksum"],
            "workload": header.get("workload"),
        }) + "\n")
        ordered = sorted(
            posts,
            key=lambda key: (key[0], -1 if key[1] is None else key[1]),
        )
        for key in ordered:
            handle.write(json.dumps(posts[key], default=str) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, merged_path)
    return len(posts), skipped


def run_merge(spec, shard_journals, merged_path, report_text_path,
              report_json_path, *, run_id, events_path=None,
              executor=None, heartbeat_path=None,
              heartbeat_interval=1.0):
    """Produce the job's final report from the merged journals.

    The merge run covers the *whole* plan with no window: every
    journaled point splices in without executing, every point an
    abandoned shard never finished executes live, and the report —
    built in plan order exactly like a one-shot run — is byte-identical
    to the serial CLI.  Returns the summary for the job record.
    """
    journaled, skipped = merge_shard_journals(
        shard_journals, merged_path
    )
    telemetry = _shard_telemetry(
        run_id, events_path, heartbeat_path, heartbeat_interval
    )
    resume = merged_path if journaled else None
    config = spec.detector_config(
        journal=merged_path,
        resume=resume,
        telemetry=telemetry,
    )
    started = time.monotonic()
    try:
        telemetry.emit(
            "run_started", workload=spec.workload,
            jobs=getattr(executor, "jobs", 1),
            executor=getattr(executor, "kind", "serial"),
        )
        result = Frontend(
            config, telemetry=telemetry, executor=executor
        ).run(spec.build_workload())
        report = XFDetector(config).analyze(result)
        telemetry.emit(
            "run_finished", workload=spec.workload,
            findings=len(report.bugs),
            stats=_deterministic_stats(report.stats),
        )
        text = report.format(unique=True)
        with open(f"{report_text_path}.tmp", "w") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(f"{report_text_path}.tmp", report_text_path)
        with open(f"{report_json_path}.tmp", "w") as handle:
            handle.write(report.to_json(unique=True))
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(f"{report_json_path}.tmp", report_json_path)
        return {
            "journaled": journaled,
            "skipped_journals": skipped,
            "bugs": len(report.bugs),
            "unique_bugs": len(report.unique_bugs()),
            "degraded": report.degraded,
            "incidents": len(report.incidents),
            "failure_points": report.stats.failure_points,
            "seconds": time.monotonic() - started,
        }
    finally:
        if executor is not None:
            end_run = getattr(executor, "end_run", None)
            if end_run is not None:
                end_run()
        telemetry.close()
