"""Traced launcher: one ``xfdetector`` invocation with per-layer spans.

Usage::

    python -m benchmarks.layers.traced SPANS.ndjson SAMPLE_ID -- run ...

Everything after ``--`` is handed unchanged to ``repro.cli.main``, so a
traced sample runs exactly the argv an untraced one does.  Before the
call, the public entry point of each layer is replaced, at the place
its callers look it up, by a wrapper that records a span (layer name,
start, end, parent span).  Spans stay in memory and are written as
NDJSON when ``main`` returns.  The program itself is not modified.

Functions pickled to pool workers (``run_post_task`` and
``run_replay_task``, passed to ``executor.run_phase``) are never
wrapped: a wrapper is a different object from the module attribute
pickle resolves by name, so every pooled task would fail to ship.  The
benchmark checks that each traced verdict equals the untraced one.

Wrappers installed before the warm pool forks also run inside its
workers, but worker spans stay in the worker; the parent's program
profile (``--profile``) is the source for worker-side time.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import sys
import time

#: Every timed layer, in pipeline order (the per-layer table's rows).
#: ``cli.main`` is the root: shares are self time over its duration.
LAYERS = (
    "workloads.setup",
    "workloads.pre_failure",
    "pm.snapshot.capture",
    "analysis.mech",
    "analysis.plans",
    "dedup.classify",
    "dedup.replay_digest",
    "dedup.image_restore",
    "workloads.recovery",
    "backend.analyze",
    "replay.lower",
    "shadow.checkpoint",
    "shadow.fork",
    "replay.dispatch",
    "exec.prewarm",
    "exec.shm_publish",
    "exec.run_phase",
    "journal.begin",
    "journal.record",
    "report.render",
    "frontend.run",
    "cli.main",
)

#: Workload stage methods, timed on every workload class defining one.
WORKLOAD_STAGES = (
    ("workloads.setup", "setup"),
    ("workloads.pre_failure", "pre_failure"),
    ("workloads.recovery", "post_failure"),
)


class Tracer:
    """In-memory span recorder for the wrapped entry points."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.origin = clock()
        #: Closed spans as ``(id, parent id, layer, start, end)``;
        #: parent 0 is the process root.
        self.spans = []
        self._stack = [0]
        self._ids = itertools.count(1)

    def wrap(self, layer, func):
        """``func`` recording one span named ``layer`` per call."""
        clock = self._clock
        stack = self._stack
        spans = self.spans
        ids = self._ids

        def timed(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            started = clock()
            try:
                return func(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                spans.append((span_id, parent, layer, started, ended))

        return timed

    def install(self, points):
        """Wrap every ``(layer, owner, attribute)`` in place."""
        for layer, owner, attr in points:
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self.wrap(layer, raw.__func__))
            else:
                patched = self.wrap(layer, raw)
            setattr(owner, attr, patched)

    def records(self, sample):
        """The spans as NDJSON-ready dicts, times relative to start."""
        for span_id, parent, layer, started, ended in self.spans:
            yield {
                "sample": sample,
                "id": span_id,
                "parent": parent,
                "name": layer,
                "start": started - self.origin,
                "end": ended - self.origin,
            }


def entry_points():
    """``(layer, owner, attribute)`` for every timed call site.

    Module-level functions are patched in the module their caller reads
    them from: ``lower_trace`` in ``repro.core.detector`` (imported by
    name there), the analysis passes in their own modules (imported
    inside the frontend function at call time).
    """
    from repro.analysis import mech, plans
    from repro.core import detector
    from repro.core.frontend import Frontend
    from repro.core.replay import TraceReplayer
    from repro.core.report import DetectionReport
    from repro.core.shadow import ShadowCheckpointCache, ShadowPM
    from repro.dedup.classes import DedupIndex
    from repro.dedup.memo import ImageMemo
    from repro.exec.pool import WarmProcessExecutor
    from repro.exec.shm import ShmSnapshotPlane
    from repro.pm.snapshot import SnapshotStore
    from repro.resilience.journal import RunJournal
    from repro.workloads import ALL_WORKLOADS, Workload

    points = [
        ("frontend.run", Frontend, "run"),
        ("pm.snapshot.capture", SnapshotStore, "capture"),
        ("analysis.mech", mech, "infer_mechanisms"),
        ("analysis.plans", plans, "build_crash_plans"),
        ("dedup.classify", DedupIndex, "build"),
        ("dedup.replay_digest", ShadowPM, "region_digest"),
        ("dedup.image_restore", ImageMemo, "task_pools"),
        ("backend.analyze", detector.XFDetector, "analyze"),
        ("replay.lower", detector, "lower_trace"),
        ("shadow.checkpoint", ShadowCheckpointCache, "capture"),
        ("shadow.fork", ShadowPM, "fork_for_replay"),
        ("replay.dispatch", TraceReplayer, "run_program"),
        ("exec.prewarm", WarmProcessExecutor, "prewarm"),
        ("exec.run_phase", WarmProcessExecutor, "run_phase"),
        ("exec.shm_publish", ShmSnapshotPlane, "publish"),
        ("journal.begin", RunJournal, "begin"),
        ("journal.record", RunJournal, "record_post"),
        ("report.render", DetectionReport, "to_json"),
    ]
    # Stage methods are timed where they are defined, so an inherited
    # stage is wrapped once and an overriding one is never missed.
    classes = {
        klass
        for cls in ALL_WORKLOADS.values()
        for klass in cls.__mro__
        if issubclass(klass, Workload)
    }
    for klass in sorted(classes, key=lambda k: k.__qualname__):
        for layer, attr in WORKLOAD_STAGES:
            if attr in vars(klass):
                points.append((layer, klass, attr))
    return points


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[2] != "--":
        print(
            "usage: python -m benchmarks.layers.traced SPANS SAMPLE "
            "-- XFDETECTOR-ARGS...",
            file=sys.stderr,
        )
        return 2
    spans_path, sample, cli_argv = argv[0], argv[1], argv[3:]
    from repro import cli

    tracer = Tracer()
    tracer.install(entry_points())
    owner = os.getpid()
    try:
        return tracer.wrap("cli.main", cli.main)(cli_argv)
    finally:
        # Forked pool workers unwind through here only if they ever
        # returned into this frame; only the launching process writes.
        if os.getpid() == owner:
            with open(spans_path, "w") as handle:
                for record in tracer.records(sample):
                    handle.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    sys.exit(main())
