"""Task bodies and phase contexts for the failure-point engine.

A *phase context* bundles everything every task of one phase reads and
nothing it writes: the (telemetry-stripped) config, the workload, the
delta snapshot store, shadow checkpoints.  The serial executor passes
it to each task by reference.  The warm pool ships it to its workers
once per phase as a pickled blob (``export_for_workers``): the
snapshot store becomes a shared-memory view, and the checkpoints stay
in the parent.  The blob carries the pre-failure trace instead, and
each worker replays it forward to every task's marker (a
``ShadowCursor``), so a batch message is only keys.  Outcomes are
built from plain data (bug records, counts, repr strings, a local
metrics registry) so the parent can merge them deterministically in
key order.

The task bodies import :mod:`repro.core.frontend` lazily: the frontend
itself imports this package, and the cycle resolves only at call time.
"""

from __future__ import annotations

import dataclasses
import os

from repro.errors import DeadlineExceeded, HarnessError, ReproError


def strip_config(config):
    """A copy of ``config`` without the telemetry sink: workers record
    into task-local registries that the parent merges, never into the
    run's own telemetry."""
    if getattr(config, "telemetry", None) is None:
        return config
    return dataclasses.replace(config, telemetry=None)


#: Path fragments identifying pipeline (harness) modules.  Workload
#: modules — ``repro/workloads`` and anything outside the package,
#: such as test-defined workloads — deliberately match none of them,
#: and neither does ``repro/pmdk``: the PMDK shim is part of the
#: *traced application stack*, so e.g. its NULL-view ValueError is the
#: Figure 1 segfault analogue, a finding rather than a harness fault.
_HARNESS_FRAGMENTS = tuple(
    os.path.join("repro", name) + os.sep
    for name in ("pm", "trace", "core", "exec", "obs", "resilience")
)


def _is_harness_fault(exc):
    """Did this exception originate in pipeline code?

    A crashing recovery is a *finding* only when the workload's own
    code (or a library error it provoked, which arrives as a
    :class:`ReproError` and never reaches this check) is at fault.  A
    programming error raised from the deepest frame of a pipeline
    module is the harness failing, and reporting it as a
    ``POST_FAILURE_CRASH`` bug would be a false positive — so the
    caller reraises it as :class:`HarnessError` for the supervisor to
    quarantine.
    """
    traceback = exc.__traceback__
    filename = ""
    while traceback is not None:
        filename = traceback.tb_frame.f_code.co_filename
        traceback = traceback.tb_next
    return any(fragment in filename for fragment in _HARNESS_FRAGMENTS)


# ----------------------------------------------------------------------
# Post-failure execution phase
# ----------------------------------------------------------------------


class PostPhaseContext:
    """Read-only inputs of the post-failure phase, plus a warm
    worker's shadow cursor (:meth:`fork`)."""

    __slots__ = ("config", "workload", "store", "uses_roi",
                 "resilience", "checkpoints", "audit", "read_keys",
                 "pre_trace", "_cursor")

    def __init__(self, config, workload, store, uses_roi, resilience,
                 checkpoints, audit, read_keys, pre_trace):
        self.config = config
        self.workload = workload
        #: The pre-failure run's ``SnapshotStore``; each worker's
        #: ``ImageMemo`` restores crash images from it.
        self.store = store
        self.uses_roi = uses_roi
        #: The phase's ``ResilienceContext`` (chaos, deadlines, attempt
        #: counts), or None when every resilience knob is off.
        self.resilience = resilience
        #: fid -> ShadowPM checkpoint captured at that FAILURE_POINT
        #: marker during the single pre-failure replay; None in a warm
        #: worker, which rolls its own (:meth:`fork`).
        self.checkpoints = checkpoints
        #: Record each task's shadow transitions into a task-local
        #: audit log shipped back in the outcome.
        self.audit = audit
        #: Task keys whose outcome must carry the run's LOAD ranges:
        #: dedup representatives whose class has another live member.
        self.read_keys = read_keys
        #: The pre-failure ``TraceRecorder`` a warm worker replays.
        self.pre_trace = pre_trace
        self._cursor = None

    def export_for_workers(self, plane):
        """The warm-pool shipping form: the snapshot store swapped for
        a shared-memory view (workers attach zero-copy), and the
        checkpoints left behind — a worker replays the pre-failure
        trace into its own (:meth:`fork`)."""
        return PostPhaseContext(
            self.config, self.workload, plane.publish(self.store),
            self.uses_roi, self.resilience, None, self.audit,
            self.read_keys, self.pre_trace,
        )

    def fork(self, fid, transition_counter):
        """The shadow a task at ``fid`` checks against: a fork of the
        parent's checkpoint in-process; in a warm worker, a fork taken
        at ``fid``'s marker by this context's
        :class:`~repro.core.detector.ShadowCursor`, which lives as long
        as the worker keeps the context."""
        if self.checkpoints is not None:
            return self.checkpoints[fid].fork_for_replay(
                transition_counter
            )
        if self._cursor is None:
            from repro.core.detector import ShadowCursor

            self._cursor = ShadowCursor(self.config, self.pre_trace)
        return self._cursor.fork(fid, transition_counter)


class PostTaskOutcome:
    """One post-failure run's result, in picklable form.

    The crash (if any) travels as ``repr(exc)`` — exception instances
    do not pickle reliably and the report only needs the message; the
    parent rebuilds a ``PostFailureCrash`` whose text is byte-identical
    to the serial executor's.  ``spans`` carries the task's own span
    tree (one ``post_run`` root with ``materialize_image`` /
    ``recovery`` children) so the coordinator can graft the worker's
    profile into the run's; ``seconds`` is that root's duration.
    """

    __slots__ = ("fid", "variant", "bugs", "benign_races", "events",
                 "has_roi", "crash_repr", "seconds", "spans", "metrics",
                 "audit", "reads")

    def __init__(self, fid, variant, bugs, benign_races, events,
                 has_roi, crash_repr, seconds, spans, metrics, audit,
                 reads):
        self.fid = fid
        self.variant = variant
        #: The run's findings, in the order its reads found them.
        self.bugs = bugs
        self.benign_races = benign_races
        #: Operations the recovery issued, and whether it opened a
        #: region of interest.
        self.events = events
        self.has_roi = has_roi
        self.crash_repr = crash_repr
        self.seconds = seconds
        self.spans = list(spans)
        #: Task-local ``MetricsRegistry``; the parent merges it so the
        #: run's counters are identical to the serial schedule's.
        self.metrics = metrics
        #: The run's ``AuditRecord`` list under audit (spliced into the
        #: run's log at its marker by the coordinator), else None.
        self.audit = audit
        #: Sorted LOAD ranges, for keys in ``read_keys``; else None.
        self.reads = reads


def run_post_task(ctx, key):
    """Run one post-failure execution on a restored crash image,
    checking each of its operations against a fork of the failure
    point's shadow checkpoint as it executes.

    ``key`` is ``(fid, variant, survivor_mask)``; a None mask means the
    base run on the configured crash-image mode.
    """
    from repro.core.frontend import ExecutionContext
    from repro.core.interface import DetectionComplete, XFInterface
    from repro.core.replay import TraceReplayer
    from repro.core.report import DetectionReport
    from repro.dedup.memo import memo_for
    from repro.obs.audit import AuditLog
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import SpanRecorder
    from repro.pm.image import CrashImageMode
    from repro.pm.memory import PersistentMemory
    from repro.trace.recorder import NullRecorder

    fid, variant, mask = key
    config = ctx.config
    metrics = MetricsRegistry()
    # Fork before the task's deadline is armed: in a warm worker the
    # fork may replay the pre-failure trace, which is the worker's
    # setup, not the run's, and must not make a deadline trip at
    # --jobs 2 that holds at --jobs 1.
    shadow = ctx.fork(fid, metrics.counter("shadow_transitions_total"))
    resilience = ctx.resilience
    deadline = watchdog = None
    if resilience is not None:
        deadline, watchdog = resilience.guard_task(key)
    # The task profiles itself into a local recorder; the root tree
    # ships back in the outcome and the coordinator grafts it into the
    # run profile.  ``seconds`` is the root's duration so derived stats
    # match the grafted span exactly.
    spans = SpanRecorder()
    root_attrs = {"fid": fid}
    if variant is not None:
        root_attrs["variant"] = variant
    audit = AuditLog() if ctx.audit else None
    try:
        with spans.span("post_run", **root_attrs) as root:
            # The trace is counted, not kept: every operation is
            # checked as it executes.  Call sites are walked only for
            # reported reads — except under audit, whose records carry
            # every transition's ip.
            recorder = NullRecorder("post")
            memory = PersistentMemory(
                recorder, config.capture_ips and audit is not None,
                platform=config.platform,
            )
            memory.deadline = deadline
            # This worker's rolling image buffers restore the crash
            # image in O(divergence) from the previous task's.  The
            # persisted-only base run is the all-lines-lost survivor
            # mask: every volatile line reverts to its persisted bytes.
            if mask is None and \
                    config.crash_image_mode is CrashImageMode.PERSISTED_ONLY:
                mask = 0
            with spans.span("materialize_image"):
                for pool in memo_for(ctx.store).task_pools(fid, mask):
                    memory.map_pool(pool)
            if audit is not None:
                shadow.audit = audit.scoped(
                    stage="post", failure_point=fid
                )
            shell = DetectionReport()
            replayer = TraceReplayer(
                shadow, config, "post", shell, failure_point=fid,
                has_roi=None, metrics=metrics,
                lazy_ips=config.capture_ips and audit is None,
                collect_reads=key in ctx.read_keys,
            )
            memory.add_observer(replayer)
            memory.roi_active = not ctx.uses_roi
            context = ExecutionContext(
                memory=memory,
                interface=XFInterface(memory, stage="post"),
                stage="post",
            )
            crash_repr = None
            with spans.span("recovery"):
                try:
                    ctx.workload.post_failure(context)
                except DetectionComplete:
                    pass
                except (DeadlineExceeded, HarnessError):
                    # Livelocked or harness-broken recovery: the
                    # supervisor's problem (a typed incident), never a
                    # finding.
                    raise
                except ReproError as exc:
                    # Library errors the workload provoked (bad
                    # persistent pointer, pool corruption, traversal
                    # limit, ...): recovery crashed — a finding.
                    crash_repr = repr(exc)
                except Exception as exc:
                    if _is_harness_fault(exc):
                        raise HarnessError(
                            f"harness fault during post-failure "
                            f"execution: "
                            f"{type(exc).__name__}: {exc}",
                            phase="post_exec",
                        ) from exc
                    crash_repr = repr(exc)  # recovery crashed: a finding
            replayer.finish()
        reads = replayer.read_ranges
        return PostTaskOutcome(
            fid, variant, shell.bugs, shell.stats.benign_races,
            len(recorder), recorder.has_roi, crash_repr, root.duration,
            spans=spans.roots, metrics=metrics,
            audit=audit.records if audit is not None else None,
            reads=tuple(sorted(reads)) if reads is not None else None,
        )
    finally:
        if watchdog is not None:
            watchdog.cancel()


# ----------------------------------------------------------------------
# Warm persistent workers (repro.exec.pool.WarmProcessExecutor)
# ----------------------------------------------------------------------


def _attach_context(ctx):
    """Swap a shipped shared-memory store view for the attached store.

    Returns the attach cost in milliseconds (the ``exec.attach_time_ms``
    gauge), or None when the context carries no view to attach.
    """
    import time

    store = getattr(ctx, "store", None)
    if store is None or not hasattr(store, "attach"):
        return None
    started = time.monotonic()
    ctx.store = store.attach()
    return (time.monotonic() - started) * 1000.0


def _shippable_error(exc):
    """``exc`` if it survives a pickle round trip, else a
    :class:`HarnessError` stand-in carrying its repr."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return HarnessError(
            f"unpicklable worker exception: {exc!r}", phase="exec"
        )


def warm_worker_main(conn, progress):
    """Body of one persistent warm-pool worker process.

    Protocol (all over one duplex pipe; the parent keeps at most two
    batches in flight, so at most one small batch message waits in the
    pipe while the worker runs the other):

    * ``("ctx", generation, blob)`` — adopt a new phase context:
      unpickle ``(context, func)``, attach any shared-memory store.
      Sent only to a worker with nothing in flight.
    * ``("batch", keys, attempts, submitted)`` — run the batch, reply
      ``("done", shipped, stats)`` where ``shipped`` is one
      ``("ok", value, queue_wait)`` or ``("err", exc)`` per key.
      Before each key the worker counts it into the shared
      ``progress`` cell (keys started over the worker's life), so if
      the process dies the parent charges exactly that key.
    * ``("reset",)`` — drop all per-run state (context with its
      shadow cursor, attached shm views, image memo) but stay alive:
      the service fleet reuses the pool for the next detection run.
    * ``("stop",)`` — exit cleanly.

    The process also exits when the parent disappears (EOF on the pipe
    or a reparented ppid between polls).
    """
    import pickle
    import time

    parent = os.getppid()
    ctx = func = None
    attach_ms = None
    started_keys = 0
    while True:
        try:
            if not conn.poll(0.5):
                if os.getppid() != parent:
                    break  # orphaned: the parent died without "stop"
                continue
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        if message[0] == "reset":
            import gc

            from repro.dedup.memo import drop_local_memo
            from repro.exec import shm

            # Drop everything holding views into the segments (the
            # context's store, the replay memo's crash images) before
            # detaching, so the mappings close cleanly instead of
            # riding GC finalization order.
            ctx = func = None
            attach_ms = None
            drop_local_memo()
            gc.collect()
            shm.detach_all()
            continue
        if message[0] == "ctx":
            _tag, _generation, blob = message
            ctx, func = pickle.loads(blob)
            attach_ms = _attach_context(ctx)
            continue
        _tag, keys, attempts, submitted = message
        shipped = []
        stats = {"attach_ms": attach_ms}
        attach_ms = None  # report the attach once, on its first batch
        if attempts:
            ctx.resilience.attempts.update(attempts)
        for key in keys:
            started_keys += 1
            progress.value = started_keys
            started = time.monotonic()
            try:
                value = func(ctx, key)
            except Exception as exc:
                shipped.append(("err", _shippable_error(exc)))
                continue
            shipped.append(("ok", value, started - submitted))
        try:
            conn.send(("done", shipped, stats))
        except Exception:
            # Some outcome refused to pickle mid-send; the parent's
            # recv would hang on a half-message if we just died, so
            # retry with per-key harness errors (plain strings, always
            # serializable).
            fallback = [
                ("err", HarnessError(
                    "warm worker could not serialize batch results",
                    phase="exec",
                ))
                for _key in keys
            ]
            try:
                conn.send(("done", fallback, stats))
            except Exception:
                break
    # Detach cleanly on the way out too: interpreter shutdown runs
    # finalizers in arbitrary order, and SharedMemory.__del__ under a
    # still-exported view prints an ignored BufferError.
    try:
        import gc

        from repro.dedup.memo import drop_local_memo
        from repro.exec import shm

        ctx = func = None
        drop_local_memo()
        gc.collect()
        shm.detach_all()
    except Exception:
        pass
    try:
        conn.close()
    except Exception:
        pass
