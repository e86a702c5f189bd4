"""The fleet: persistent fork-workers that run job tasks.

The daemon's unit of compute is a *fleet worker*: one forked process
that runs probe/shard/merge tasks (:mod:`repro.service.shard`) one at
a time over a duplex pipe, mirroring the warm-pool dispatch discipline
of :class:`~repro.exec.pool.WarmProcessExecutor` — the parent only
sends to idle workers, watches process sentinels for deaths, and
respawns slots on demand.

Each fleet worker owns one persistent detection executor, built on
first use and kept warm **across runs**: after every task the worker
calls ``executor.end_run()`` (release the run's shared-memory plane,
reset the inner warm workers) instead of ``close()``, so the next
shard reuses the prewarmed pool.  A SIGKILL'd fleet worker takes its
inner pool down with it (the workers are daemonic children); the
shard's journal carries the progress.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import multiprocessing.connection
import os
import signal

from repro.service.jobstore import JobStore
from repro.service.spec import JobSpec


@dataclasses.dataclass
class FleetSettings:
    """The daemon's compute shape, inherited by every fleet worker."""

    #: Fleet worker processes (concurrent tasks).
    workers: int = 2
    #: ``jobs`` inside each shard run; >1 builds a warm pool per
    #: fleet worker, 1 runs shards serially in the worker itself.
    shard_jobs: int = 1
    batch_size: int = 8
    heartbeat_interval: float = 0.2

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


def _build_executor(settings):
    from repro.exec.base import SerialExecutor
    from repro.exec.pool import WarmProcessExecutor

    if settings.shard_jobs > 1 and WarmProcessExecutor.available():
        executor = WarmProcessExecutor(
            settings.shard_jobs, batch_size=settings.batch_size
        )
        executor.prewarm()
        return executor
    return SerialExecutor()


def _run_task(task, settings, executor, store):
    """Dispatch one task message to its body; returns the summary."""
    from repro.service import shard as shard_mod

    spec = JobSpec.from_dict(task["spec"])
    job_id = task["job_id"]
    kind = task["kind"]
    events = store.events_path(job_id)
    if kind == "probe":
        fids = shard_mod.run_probe(
            spec, run_id=f"{job_id}/probe", events_path=events
        )
        return {"fids": fids}
    if kind == "shard":
        shard_id = task["shard_id"]
        return shard_mod.run_shard(
            spec, task["lo"], task["hi"],
            store.shard_journal_path(job_id, shard_id),
            run_id=f"{job_id}/shard-{shard_id}",
            events_path=events,
            heartbeat_path=store.heartbeat_path(job_id, shard_id),
            executor=executor,
            heartbeat_interval=settings.heartbeat_interval,
        )
    if kind == "merge":
        return shard_mod.run_merge(
            spec,
            [store.shard_journal_path(job_id, s.shard_id)
             for s in task["shards"]],
            store.merged_journal_path(job_id),
            store.report_path(job_id, "text"),
            store.report_path(job_id, "json"),
            run_id=f"{job_id}/merge",
            events_path=events,
            executor=executor,
            heartbeat_path=task.get("heartbeat_path"),
            heartbeat_interval=settings.heartbeat_interval,
        )
    raise ValueError(f"unknown fleet task kind {kind!r}")


def fleet_worker_main(conn, settings_dict, store_root):
    """Body of one fleet worker process.

    Protocol (parent never sends to a busy worker):

    * ``("task", task)`` — run it, reply ``("done", task_key, result)``
      or ``("failed", task_key, detail)``.
    * ``("stop",)`` — close the persistent executor and exit.

    Also exits on pipe EOF or a reparented ppid, like the warm workers
    one layer down.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # daemon drains us
    settings = FleetSettings.from_dict(settings_dict)
    store = JobStore(store_root)
    parent = os.getppid()
    executor = None
    try:
        while True:
            try:
                if not conn.poll(0.5):
                    if os.getppid() != parent:
                        break
                    continue
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == "stop":
                break
            _tag, task = message
            key = (task["kind"], task["job_id"],
                   task.get("shard_id"))
            if executor is None and task["kind"] != "probe":
                executor = _build_executor(settings)
            try:
                result = _run_task(task, settings, executor, store)
            except Exception as exc:
                reply = ("failed", key,
                         f"{type(exc).__name__}: {exc}")
            else:
                reply = ("done", key, result)
            try:
                conn.send(reply)
            except Exception:
                break
    finally:
        if executor is not None:
            executor.close()
        try:
            conn.close()
        except Exception:
            pass


class _FleetWorker:
    """Parent-side handle on one fleet worker."""

    __slots__ = ("conn", "process", "task")

    def __init__(self, conn, process):
        self.conn = conn
        self.process = process
        #: The in-flight task dict, or None when idle.
        self.task = None

    @property
    def label(self):
        return f"fleet-{self.process.pid}"


class Fleet:
    """Parent-side pool of fleet workers (dispatch + reap + respawn)."""

    def __init__(self, settings, store_root):
        self.settings = settings
        self.store_root = store_root
        self._mp = multiprocessing.get_context("fork")
        self._workers = []
        self._spawned = 0

    # -- lifecycle ------------------------------------------------------

    def start(self):
        while len(self._workers) < self.settings.workers:
            self._workers.append(self._spawn())

    def _spawn(self):
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=fleet_worker_main,
            args=(child_conn, self.settings.to_dict(),
                  self.store_root),
            name=f"xfd-fleet-{self._spawned}",
            daemon=False,  # fleet workers parent daemonic warm pools
        )
        self._spawned += 1
        process.start()
        child_conn.close()
        return _FleetWorker(parent_conn, process)

    def idle_workers(self):
        return [w for w in self._workers if w.task is None]

    def busy_workers(self):
        return [w for w in self._workers if w.task is not None]

    def worker_for(self, kind, job_id, shard_id=None):
        """The busy worker running this task, or None."""
        for worker in self._workers:
            task = worker.task
            if task is None:
                continue
            if (task["kind"], task["job_id"],
                    task.get("shard_id")) == (kind, job_id, shard_id):
                return worker
        return None

    # -- dispatch + completion ------------------------------------------

    def dispatch(self, task):
        """Send one task to an idle worker; False if none (or the
        send failed — dead slots are discarded and respawned)."""
        for worker in self.idle_workers():
            try:
                worker.conn.send(("task", task))
            except Exception:
                self._discard(worker)
                continue
            worker.task = task
            return True
        return False

    def poll(self, timeout=0.2):
        """Wait for activity; yields ``(worker, task, reply)`` tuples
        where ``reply`` is the worker's message, or ``("died",
        exitcode)`` when the worker was lost mid-task."""
        busy = self.busy_workers()
        if not busy:
            return []
        conns = {worker.conn: worker for worker in busy}
        sentinels = {
            worker.process.sentinel: worker for worker in busy
        }
        ready = multiprocessing.connection.wait(
            list(conns) + list(sentinels), timeout=timeout
        )
        completions = []
        for item in ready:
            worker = conns.get(item) or sentinels.get(item)
            if worker is None or worker.task is None:
                continue
            task = worker.task
            if item is worker.conn:
                try:
                    reply = worker.conn.recv()
                except (EOFError, OSError):
                    completions.append(self._lose(worker, task))
                    continue
                worker.task = None
                completions.append((worker, task, reply))
            else:
                # Sentinel: drain a result that raced the death.
                try:
                    if worker.conn.poll(0):
                        reply = worker.conn.recv()
                        worker.task = None
                        completions.append((worker, task, reply))
                        self._discard(worker)
                        continue
                except (EOFError, OSError):
                    pass
                completions.append(self._lose(worker, task))
        return completions

    def _lose(self, worker, task):
        exitcode = worker.process.exitcode
        worker.task = None
        self._discard(worker)
        return (worker, task, ("died", exitcode))

    def _discard(self, worker):
        try:
            worker.conn.close()
        except Exception:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(2.0)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(1.0)
        try:
            self._workers.remove(worker)
        except ValueError:
            pass

    def ensure_complement(self):
        """Respawn lost slots (after deaths or reclaim kills)."""
        while len(self._workers) < self.settings.workers:
            self._workers.append(self._spawn())

    def kill_worker(self, worker):
        """Hard-stop one worker (reaper reclaim / cancel); its slot
        respawns via :meth:`ensure_complement`."""
        self._discard(worker)

    # -- shutdown -------------------------------------------------------

    def stop(self, grace=5.0):
        """Graceful stop: ask idle workers to exit, wait for busy ones
        up to ``grace`` seconds, then terminate what remains."""
        import time

        for worker in self.idle_workers():
            try:
                worker.conn.send(("stop",))
            except Exception:
                pass
        deadline = time.monotonic() + grace
        while self.busy_workers() and time.monotonic() < deadline:
            for _worker, _task, _reply in self.poll(timeout=0.2):
                pass
        for worker in list(self._workers):
            if worker.task is None:
                try:
                    worker.conn.send(("stop",))
                except Exception:
                    pass
        for worker in list(self._workers):
            worker.process.join(2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(1.0)
            try:
                worker.conn.close()
            except Exception:
                pass
        self._workers = []
