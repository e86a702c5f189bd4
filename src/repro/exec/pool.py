"""The warm persistent process pool.

Workers are forked once per run and kept alive across phases.  They
fork *before* any phase context exists, so contexts reach them
explicitly: a pickled blob in which the snapshot store has been
replaced by a :class:`~repro.exec.shm.ShmStoreView` (workers attach
the shared segment zero-copy), and which carries the pre-failure trace
instead of shadow checkpoints: each worker replays it into its own
(``PostPhaseContext.fork``).  Each worker keeps its attached store —
and with it one long-lived ``repro.dedup.ImageMemo`` — for the whole
run.

Dispatch is *batched*: keys are grouped by
:func:`~repro.exec.base.plan_batches` and each batch is one small
pipe message of keys, attempt counts and a timestamp, so per-task
scheduling overhead amortizes and a worker's image and shadow cursors
advance monotonically across the whole batch.  Each worker holds up
to two batches, so it never idles waiting for the parent to read a
result.  Results are collected in key order, so downstream merging is
deterministic.  Queue-wait is measured with ``time.monotonic``
(system-wide on Linux, so it is comparable across a fork) from a
batch's dispatch to each task's start, so it includes the time a
queued batch waits behind the running one; it is surfaced per task
through :class:`~repro.exec.base.TaskOutcome`.

A phase whose context or task function will not pickle runs inline on
the serial schedule instead (the ``exec.warm_fallbacks`` counter).
"""

from __future__ import annotations

import collections
import concurrent.futures
import multiprocessing
import multiprocessing.connection
import pickle
import time

from repro.errors import HarnessError
from repro.exec.base import SerialExecutor, TaskOutcome, plan_batches


#: Batches one worker holds at once: the one it runs and one queued
#: behind it, so it starts the next without waiting a round trip for
#: the parent to read its result.
_MAX_IN_FLIGHT = 2


class _WarmWorker:
    """Parent-side handle on one persistent worker process."""

    __slots__ = ("conn", "process", "progress", "generation", "batches",
                 "keys_done")

    def __init__(self, conn, process, progress):
        self.conn = conn
        self.process = process
        #: Shared cell counting the keys the worker has started over
        #: its life, so a death is charged to the last one.
        self.progress = progress
        #: The context generation last shipped to this worker; stale
        #: workers get a fresh ``("ctx", ...)`` before their next batch.
        self.generation = -1
        #: Batches completed — ≥ 2 means the spawn cost amortized.
        self.batches = 0
        #: Keys of the completed batches: the position in ``progress``
        #: where the oldest batch still in flight starts.
        self.keys_done = 0

    @property
    def label(self):
        return f"pid-{self.process.pid}"


#: Identity-cache sentinel: a phase context may legitimately be None.
_NO_CONTEXT = object()

#: Pickling failures leave the pipe intact (``Connection.send``
#: serializes fully before writing), so the worker stays usable and
#: the batch fails deterministically as a harness error.
_SEND_FAULTS = (pickle.PicklingError, TypeError, AttributeError)


class WarmProcessExecutor:
    """A persistent fork-process pool fed over pipes.

    Workers are spawned once (ideally via :meth:`prewarm`, before the
    pre-failure stage grows the parent) and survive across phases,
    retry waves, and dedup fallback waves.  Dispatch discipline: each
    worker holds up to two batches, the one it runs and one queued in
    its pipe, so it starts the next without waiting for the parent to
    read its result.  A batch message is keys, attempt counts and a
    timestamp, a few hundred bytes, so a write to a busy worker always
    fits in the pipe and cannot deadlock.  The phase context blob goes
    only to a worker with nothing in flight, which is sitting in its
    receive loop.

    A worker death is charged to the one key it was running: the last
    key it started, in its oldest batch still in flight, after any
    results it shipped before dying are read.  That key gets a
    ``BrokenExecutor`` outcome (transient, retried by the supervisor
    on a fresh attempt), while its batchmates — including the ones it
    finished but could not ship — and every batch queued behind it are
    requeued in the same phase without being charged.  Dead workers
    are replaced before the next dispatch, so a phase always drains.
    """

    kind = "process"

    def __init__(self, jobs, batch_size=8, telemetry=None):
        from repro.exec.shm import ShmSnapshotPlane

        self.jobs = max(2, int(jobs))
        self.batch_size = max(1, int(batch_size))
        self._telemetry = telemetry
        self._plane = ShmSnapshotPlane()
        self._mp = multiprocessing.get_context("fork")
        self._workers = []
        self._generation = 0
        self._ctx_ref = _NO_CONTEXT
        self._ctx_blob = None
        self._closed = False

    @staticmethod
    def available():
        return "fork" in multiprocessing.get_all_start_methods()

    # -- telemetry helpers ---------------------------------------------

    def _metric_inc(self, name, value=1):
        if self._telemetry is not None:
            self._telemetry.metrics.inc(name, value)

    def _gauge(self, name, value):
        if self._telemetry is not None:
            self._telemetry.metrics.set_gauge(name, value)

    # -- worker lifecycle ----------------------------------------------

    def prewarm(self):
        """Spawn the full worker complement now.

        The detector calls this before the pre-failure stage runs, so
        the forked children are minimal — they never carry a
        copy-on-write image of the trace, store, or checkpoints.
        """
        if self._closed:
            return
        self._top_up(self.jobs)

    def _top_up(self, count):
        """Spawn workers until at least ``count`` are alive."""
        while len(self._workers) < count:
            self._workers.append(self._spawn())

    def _spawn(self):
        from multiprocessing import resource_tracker

        from repro.exec.worker import warm_worker_main

        # Make sure the resource tracker exists *before* the fork, so
        # every worker inherits the parent's tracker.  A worker forked
        # pre-tracker would lazily spawn its own on shm attach, and
        # that private tracker would try to clean up — i.e. unlink —
        # segments the parent still serves when the worker exits.
        resource_tracker.ensure_running()
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        progress = self._mp.RawValue("q", 0)
        process = self._mp.Process(
            target=warm_worker_main,
            args=(child_conn, progress),
            name=f"xfd-warm-{len(self._workers)}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _WarmWorker(parent_conn, process, progress)

    def _discard(self, worker):
        try:
            worker.conn.close()
        except Exception:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(1.0)
        try:
            self._workers.remove(worker)
        except ValueError:
            pass

    # -- context export -------------------------------------------------

    def _export_blob(self, context, func):
        """The pickled ``(context, func)`` payload for this phase, with
        heavy members swapped for shared-memory views; None when the
        phase cannot be exported (it then runs inline)."""
        if context is self._ctx_ref:
            return self._ctx_blob
        export = context
        try:
            exporter = getattr(context, "export_for_workers", None)
            if exporter is not None:
                export = exporter(self._plane)
            blob = pickle.dumps(
                (export, func), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception:
            return None
        self._ctx_ref = context
        self._ctx_blob = blob
        self._generation += 1
        self._gauge("exec.shm_bytes_shared", self._plane.bytes_shared)
        return blob

    # -- the phase loop -------------------------------------------------

    def run_phase(self, context, func, keys):
        keys = list(keys)
        if not keys:
            return []
        blob = self._export_blob(context, func)
        if blob is None:
            # Unpicklable phase (e.g. a locally-defined test workload
            # or task function): run it inline on the serial schedule.
            self._metric_inc("exec.warm_fallbacks")
            return SerialExecutor().run_phase(context, func, keys)
        batches = plan_batches(keys, self.batch_size)
        self._gauge(
            "exec.batch_size_effective", len(keys) / len(batches)
        )
        attempts = getattr(
            getattr(context, "resilience", None), "attempts", None
        )
        # Batches travel as lists of key positions, so a batch split by
        # a worker death still lands every outcome in key order.
        pending = collections.deque()
        start = 0
        for batch in batches:
            pending.append(list(range(start, start + len(batch))))
            start += len(batch)
        results = [None] * len(keys)  # position -> TaskOutcome
        # worker -> deque of the position lists it holds, oldest first.
        inflight = {}
        while pending or inflight:
            # Replace dead workers, then fill every free slot.
            self._top_up(min(self.jobs, len(inflight) + len(pending)))
            self._dispatch(pending, inflight, keys, results, blob,
                           attempts)
            if inflight:
                self._reap(inflight, keys, results, pending)
        return results

    def _dispatch(self, pending, inflight, keys, results, blob,
                  attempts):
        """Send pending batches until every live worker holds
        ``_MAX_IN_FLIGHT``, breadth-first: no worker gets a second
        batch while another has none."""
        for depth in range(_MAX_IN_FLIGHT):
            for worker in list(self._workers):
                if not pending:
                    return
                queue = inflight.get(worker)
                held = len(queue) if queue else 0
                if held > depth:
                    continue
                if not worker.process.is_alive():
                    if not held:
                        self._discard(worker)  # replaced next pass
                    continue  # else its sentinel reports the death
                if held and worker.generation != self._generation:
                    continue  # the context blob needs an idle worker
                positions = pending.popleft()
                if queue is None:
                    queue = inflight[worker] = collections.deque()
                queue.append(positions)
                try:
                    error = self._send_batch(
                        worker, [keys[p] for p in positions], blob,
                        attempts,
                    )
                except OSError:
                    self._bury(worker, inflight, keys, results, pending)
                    continue
                if error is not None:
                    queue.pop()
                    if not queue:
                        del inflight[worker]
                    for position in positions:
                        results[position] = TaskOutcome(None, error=error)

    def _send_batch(self, worker, batch, blob, attempts):
        """Ship context (if stale) then the batch.  Returns None once
        sent, or the :class:`HarnessError` every key of a batch that
        cannot be pickled fails with; raises ``OSError`` when the
        worker is dead."""
        batch_attempts = None
        if attempts is not None:
            batch_attempts = {
                key: attempts[key] for key in batch if key in attempts
            }
        try:
            if worker.generation != self._generation:
                worker.conn.send(("ctx", self._generation, blob))
                worker.generation = self._generation
            worker.conn.send(
                ("batch", batch, batch_attempts, time.monotonic())
            )
        except _SEND_FAULTS as exc:
            # The pipe is intact — the batch would not pickle.
            return HarnessError(
                f"batch would not serialize: "
                f"{type(exc).__name__}: {exc}",
                phase="exec",
            )
        return None

    def _reap(self, inflight, keys, results, pending):
        """Wait for one completion (or a death) and record it."""
        conns = {worker.conn: worker for worker in inflight}
        sentinels = {
            worker.process.sentinel: worker for worker in inflight
        }
        ready = multiprocessing.connection.wait(
            list(conns) + list(sentinels), timeout=1.0
        )
        for item in ready:
            worker = conns.get(item) or sentinels.get(item)
            if worker is None or worker not in inflight:
                continue  # already handled via its other handle
            if item is worker.conn:
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    message = None
                if message is not None:
                    self._record(worker, inflight, message, keys,
                                 results)
                    continue
            self._bury(worker, inflight, keys, results, pending)

    def _record(self, worker, inflight, message, keys, results):
        """File ``message`` as the result of ``worker``'s oldest batch
        in flight."""
        queue = inflight[worker]
        positions = queue.popleft()
        if not queue:
            del inflight[worker]
        worker.keys_done += len(positions)
        batch = [keys[position] for position in positions]
        for position, outcome in zip(
            positions, self._unpack(message, batch, worker)
        ):
            results[position] = outcome
        worker.batches += 1
        if worker.batches > 1:
            self._metric_inc("exec.worker_reuse_count")

    def _bury(self, worker, inflight, keys, results, pending):
        """``worker`` died.  Record the results it shipped first, then
        charge the key it was running — the last one it started, in
        its oldest batch still in flight — and requeue the rest of
        that batch and every batch queued behind it, uncharged, at the
        head of the queue."""
        while worker in inflight:
            try:
                # A worker that exited right after sending still has
                # its completed results sitting in the pipe.
                if not worker.conn.poll(0):
                    break
                message = worker.conn.recv()
            except (EOFError, OSError):
                break
            self._record(worker, inflight, message, keys, results)
        queue = inflight.pop(worker, None)
        self._discard(worker)
        if not queue:
            return
        oldest = queue.popleft()
        running = worker.progress.value - worker.keys_done - 1
        running = min(max(running, 0), len(oldest) - 1)
        results[oldest[running]] = TaskOutcome(
            None,
            error=concurrent.futures.BrokenExecutor(
                f"warm worker {worker.label} died mid-batch "
                f"(exitcode {worker.process.exitcode})"
            ),
        )
        queue.appendleft(oldest[:running] + oldest[running + 1:])
        for positions in reversed(queue):
            if positions:
                pending.appendleft(positions)

    def _unpack(self, message, batch, worker):
        """A worker's ``("done", shipped, stats)`` message as
        TaskOutcomes, defensively padded to the batch length."""
        _tag, shipped, stats = message
        attach_ms = stats.get("attach_ms")
        if attach_ms is not None:
            self._gauge("exec.attach_time_ms", attach_ms)
        outcomes = []
        for entry in shipped[:len(batch)]:
            if entry[0] == "ok":
                outcomes.append(
                    TaskOutcome(entry[1], entry[2], worker.label)
                )
            else:
                outcomes.append(TaskOutcome(None, error=entry[1]))
        while len(outcomes) < len(batch):
            outcomes.append(TaskOutcome(None, error=HarnessError(
                "warm worker returned short batch", phase="exec",
            )))
        return outcomes

    def end_run(self):
        """Retire one run's context while keeping the workers warm.

        The service fleet reuses a prewarmed pool *across* detection
        runs: between runs the shared-memory plane is released (it is
        reusable — ``publish`` after ``close`` allocates a fresh
        segment), the parent's context cache is dropped, and every
        worker is told to ``reset`` — detach its shm views and drop
        its replay memo — so nothing from run N can leak into run
        N+1's results or hold run N's segments alive.
        """
        if self._closed:
            return
        self._plane.close()
        self._ctx_ref = _NO_CONTEXT
        self._ctx_blob = None
        for worker in list(self._workers):
            try:
                worker.conn.send(("reset",))
                worker.generation = -1
            except Exception:
                self._discard(worker)

    def close(self):
        if self._closed:
            return
        self._closed = True
        for worker in list(self._workers):
            try:
                worker.conn.send(("stop",))
            except Exception:
                pass
        for worker in list(self._workers):
            worker.process.join(2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
            try:
                worker.conn.close()
            except Exception:
                pass
        self._workers = []
        self._plane.close()
