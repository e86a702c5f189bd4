"""The daemon core: job state machine driving the fleet.

Single-threaded by design: the scheduler loop owns every job record
and the fleet, and the HTTP threads talk to it exclusively through a
command queue (:meth:`Scheduler.submit` / :meth:`cancel` /
:meth:`drain` block on a reply event).  Status reads never enter the
loop at all — records are persisted atomically on every change, so
API threads read them straight from disk.

Crash model: the loop persists a job's record *before* acting on the
new state (dispatch after save), so a daemon killed between any two
instructions recovers by re-deriving work from the records — a shard
marked ``running`` with no live worker simply requeues, its journal
splicing whatever the dead attempt completed.  Nothing the scheduler
loses is a result; results live in journals.
"""

from __future__ import annotations

import queue
import threading
import time

from repro.obs import Telemetry
from repro.obs.live import LiveBus, PromFileSink
from repro.service.fleet import Fleet, FleetSettings
from repro.service.jobstore import ShardRecord
from repro.service.reaper import Reaper
from repro.service.shard import plan_shards
from repro.service.spec import JobSpec, SpecError

#: Attempt budgets for the non-shard task kinds (shards have their own
#: reclaim budget on the reaper).
PROBE_RETRIES = 1
MERGE_RETRIES = 1


class _Command:
    __slots__ = ("name", "payload", "event", "result", "error")

    def __init__(self, name, payload):
        self.name = name
        self.payload = payload
        self.event = threading.Event()
        self.result = None
        self.error = None


class Scheduler:
    """Owns the job table, the fleet, and the daemon's telemetry."""

    def __init__(self, store, settings=None, reaper=None,
                 telemetry=None):
        self.store = store
        self.settings = settings or FleetSettings()
        self.reaper = reaper or Reaper()
        self.fleet = Fleet(self.settings, store.root)
        self.telemetry = (
            telemetry if telemetry is not None
            else self._build_telemetry()
        )
        #: job_id -> (JobSpec, JobRecord); the loop's working set.
        self.jobs = {}
        self._commands = queue.Queue()
        self.draining = False
        self.drained = False
        self._drain_started = None
        self.drain_timeout = 30.0
        self._stop = False

    def _build_telemetry(self):
        telemetry = Telemetry()
        sink = PromFileSink(self.store.prom_path(), telemetry)
        telemetry.bus = LiveBus(
            [sink], run_id="service",
            heartbeat_interval=max(
                0.2, self.settings.heartbeat_interval
            ),
        )
        return telemetry

    # -- startup / recovery ---------------------------------------------

    def start(self):
        """Load every unfinished job from disk and start the fleet.

        Recovery is re-derivation, not replay: shards the dead daemon
        left ``running`` requeue immediately (their journals carry the
        progress), a job probed but unplanned re-probes, and a job
        whose shards all settled goes straight to merge.
        """
        for job_id in self.store.list_jobs():
            record = self.store.load(job_id)
            if record.finished:
                continue
            try:
                spec = self.store.load_spec(job_id)
            except SpecError as exc:
                # A spec persisted by an older version can name a knob
                # this one dropped: fail that job, keep the daemon up.
                record.advance("FAILED", f"spec no longer loads: {exc}")
                self.store.save(record)
                continue
            recovered = 0
            for shard in record.shards:
                if shard.status == "running":
                    shard.status = "pending"
                    shard.eligible_at = 0.0
                    recovered += 1
            if recovered:
                self.store.save(record)
            self.jobs[job_id] = (spec, record)
        self.fleet.start()
        # run_started opens the bus's heartbeat ticker, which drives
        # the Prometheus textfile rewrites from here on.
        self.telemetry.emit(
            "run_started", workload="service",
            jobs=self.settings.workers, executor="fleet",
        )
        self._update_gauges()

    # -- thread-safe command API (HTTP threads) --------------------------

    def _command(self, name, payload, timeout=30.0):
        command = _Command(name, payload)
        self._commands.put(command)
        if not command.event.wait(timeout):
            raise TimeoutError(f"scheduler did not answer {name!r}")
        if command.error is not None:
            raise command.error
        return command.result

    def submit(self, spec_dict):
        """Validate + persist a new job; returns its job_id."""
        return self._command("submit", spec_dict)

    def cancel(self, job_id):
        return self._command("cancel", job_id)

    def drain(self):
        """Start a graceful drain; returns immediately."""
        return self._command("drain", None)

    # -- the loop --------------------------------------------------------

    def run_forever(self, poll=0.2):
        while not self._stop:
            self.step(poll)
            if self.drained:
                break

    def stop(self):
        self._stop = True

    def step(self, poll=0.2):
        """One scheduler iteration; the unit the tests drive."""
        self._process_commands()
        if self.draining:
            self._step_drain()
        else:
            self._dispatch_ready()
        for worker, task, reply in self.fleet.poll(timeout=poll):
            self._complete(worker, task, reply)
        if not self.draining:
            self._reap()
            self.fleet.ensure_complement()
        self._update_gauges()

    # -- commands --------------------------------------------------------

    def _process_commands(self):
        while True:
            try:
                command = self._commands.get_nowait()
            except queue.Empty:
                return
            try:
                command.result = self._apply(command)
            except Exception as exc:
                command.error = exc
            finally:
                command.event.set()

    def _apply(self, command):
        if command.name == "submit":
            if self.draining:
                raise SpecError("daemon is draining; not accepting jobs")
            spec = JobSpec.from_dict(command.payload)
            record = self.store.create(spec)
            self.jobs[record.job_id] = (spec, record)
            self.telemetry.emit(
                "job_submitted", job=record.job_id,
                workload=spec.workload, shards=spec.shards,
            )
            return record.job_id
        if command.name == "cancel":
            return self._cancel(command.payload)
        if command.name == "drain":
            if not self.draining:
                self.draining = True
                self._drain_started = time.monotonic()
                self.telemetry.emit(
                    "drain_started",
                    busy=len(self.fleet.busy_workers()),
                )
            return True
        raise ValueError(f"unknown command {command.name!r}")

    def _cancel(self, job_id):
        entry = self.jobs.get(job_id)
        if entry is None:
            record = self.store.load(job_id)  # raises if unknown
            return record.state
        _spec, record = entry
        if record.finished:
            return record.state
        for worker in list(self.fleet.busy_workers()):
            if worker.task and worker.task["job_id"] == job_id:
                self.fleet.kill_worker(worker)
        for shard in record.shards:
            if shard.status == "running":
                shard.status = "pending"
        record.advance("CANCELLED", "cancelled by request")
        self.store.save(record)
        self._emit_job_state(record)
        return record.state

    # -- dispatch --------------------------------------------------------

    def _active_jobs(self):
        return [
            (spec, record) for spec, record in self.jobs.values()
            if not record.finished
        ]

    def _dispatch_ready(self):
        now = time.time()
        for spec, record in self._active_jobs():
            if record.state == "PENDING":
                record.advance("RUNNING")
                self.store.save(record)
                self._emit_job_state(record)
            if record.planned_points is None:
                self._dispatch_probe(spec, record)
                continue
            if record.planned_points and not record.shards_settled():
                self._dispatch_shards(spec, record, now)
                continue
            if not record.merged:
                self._dispatch_merge(spec, record)

    def _task_base(self, kind, spec, record, **extra):
        task = {
            "kind": kind, "job_id": record.job_id,
            "spec": spec.to_dict(), "dispatched_at": time.time(),
        }
        task.update(extra)
        return task

    def _dispatch_probe(self, spec, record):
        if self.fleet.worker_for("probe", record.job_id) is not None:
            return
        self.fleet.dispatch(self._task_base("probe", spec, record))

    def _dispatch_shards(self, spec, record, now):
        for shard in record.shards:
            if shard.status != "pending" or shard.eligible_at > now:
                continue
            task = self._task_base(
                "shard", spec, record,
                shard_id=shard.shard_id, lo=shard.lo, hi=shard.hi,
                jitter_salt=shard.shard_id + 1,
            )
            if not self.fleet.dispatch(task):
                return  # fleet is full; try next step
            shard.status = "running"
            shard.attempts += 1
            self.store.save(record)
            self.telemetry.emit(
                "shard_dispatched", job=record.job_id,
                shard=shard.shard_id, lo=shard.lo, hi=shard.hi,
                attempt=shard.attempts,
            )

    def _dispatch_merge(self, spec, record):
        if self.fleet.worker_for("merge", record.job_id) is not None:
            return
        self.fleet.dispatch(self._task_base(
            "merge", spec, record, shards=record.shards,
        ))

    # -- completions -----------------------------------------------------

    def _complete(self, worker, task, reply):
        job_id = task["job_id"]
        entry = self.jobs.get(job_id)
        if entry is None:
            return
        spec, record = entry
        if record.finished:
            return  # cancelled while in flight; result is moot
        kind = task["kind"]
        if reply[0] == "done":
            self._complete_done(spec, record, kind, task, reply[2])
        elif reply[0] == "failed":
            self._complete_failed(record, kind, task, reply[2])
        else:  # ("died", exitcode)
            self._complete_died(record, kind, task, reply[1])
        self.store.save(record)

    def _complete_done(self, spec, record, kind, task, result):
        if kind == "probe":
            fids = result["fids"]
            record.planned_points = len(fids)
            record.shards = [
                ShardRecord(
                    shard_id=index, lo=lo, hi=hi, points=points,
                )
                for index, (lo, hi, points)
                in enumerate(plan_shards(fids, spec.shards))
            ]
            return
        if kind == "shard":
            shard = record.shard(task["shard_id"])
            shard.status = "done"
            shard.summary = result
            self.telemetry.emit(
                "shard_completed", job=record.job_id,
                shard=shard.shard_id,
                journaled=result.get("journaled"),
                bugs=result.get("bugs"),
            )
            return
        # merge
        record.merged = True
        if result.get("degraded"):
            record.finalize_degraded(
                f"merge lost points: {result.get('incidents')} "
                f"incident(s)"
            )
        else:
            record.advance("DONE")
        self._emit_job_state(record, summary=result)

    def _complete_failed(self, record, kind, task, detail):
        if kind == "probe":
            record.probe_attempts += 1
            if record.probe_attempts > PROBE_RETRIES:
                record.advance("FAILED", f"probe failed: {detail}")
                self._emit_job_state(record)
            return
        if kind == "shard":
            self._retire_shard_attempt(
                record, task["shard_id"], f"task failed: {detail}"
            )
            return
        record.merge_attempts += 1
        if record.merge_attempts > MERGE_RETRIES:
            record.advance("FAILED", f"merge failed: {detail}")
            self._emit_job_state(record)

    def _complete_died(self, record, kind, task, exitcode):
        detail = f"fleet worker died (exitcode {exitcode})"
        if kind == "shard":
            self._retire_shard_attempt(
                record, task["shard_id"], detail
            )
        else:
            self._complete_failed(record, kind, task, detail)

    def _retire_shard_attempt(self, record, shard_id, detail):
        """One shard attempt is gone (death, failure, or reclaim):
        requeue with backoff or abandon, degrading the job."""
        shard = record.shard(shard_id)
        verdict = self.reaper.reclaim(shard)
        self.telemetry.metrics.inc("service.shard_retries")
        self.telemetry.emit(
            "shard_reclaimed", job=record.job_id, shard=shard_id,
            verdict=verdict, attempts=shard.attempts, detail=detail,
        )
        if verdict == "abandoned" and record.state == "RUNNING":
            record.advance(
                "DEGRADED",
                f"shard {shard_id} abandoned after "
                f"{shard.reclaims} reclaim(s): {detail}",
            )
            self._emit_job_state(record)

    # -- reaping ---------------------------------------------------------

    def _reap(self):
        for worker in list(self.fleet.busy_workers()):
            task = worker.task
            if task is None or task["kind"] != "shard":
                continue
            entry = self.jobs.get(task["job_id"])
            if entry is None:
                continue
            _spec, record = entry
            heartbeat = self.store.heartbeat_path(
                task["job_id"], task["shard_id"]
            )
            if not self.reaper.is_stale(
                heartbeat, task["dispatched_at"]
            ):
                continue
            self.fleet.kill_worker(worker)
            self.telemetry.metrics.inc("service.shard_reclaims")
            self._retire_shard_attempt(
                record, task["shard_id"], "stale heartbeat"
            )
            self.store.save(record)

    # -- drain -----------------------------------------------------------

    def _step_drain(self):
        busy = self.fleet.busy_workers()
        elapsed = time.monotonic() - self._drain_started
        if busy and elapsed < self.drain_timeout:
            return
        if busy:
            # Timed out: kill what remains — their journals carry the
            # progress, so the only cost is a resumed re-dispatch.
            for worker in list(busy):
                task = worker.task
                self.fleet.kill_worker(worker)
                if task and task["kind"] == "shard":
                    entry = self.jobs.get(task["job_id"])
                    if entry:
                        shard = entry[1].shard(task["shard_id"])
                        shard.status = "pending"
                        shard.eligible_at = 0.0
                        self.store.save(entry[1])
        # Requeue every still-running shard record (in-flight batches
        # finished above; nothing is mid-run anymore).
        for _spec, record in self._active_jobs():
            changed = False
            for shard in record.shards:
                if shard.status == "running":
                    shard.status = "pending"
                    shard.eligible_at = 0.0
                    changed = True
            if changed:
                self.store.save(record)
        seconds = time.monotonic() - self._drain_started
        self.telemetry.metrics.set_gauge(
            "service.drain_seconds", seconds
        )
        self.telemetry.emit(
            "drain_finished", seconds=seconds,
            jobs_pending=len(self._active_jobs()),
        )
        self.drained = True

    # -- telemetry -------------------------------------------------------

    def _emit_job_state(self, record, **extra):
        self.telemetry.emit(
            "job_state", job=record.job_id, state=record.state,
            finished=record.finished, detail=record.detail, **extra,
        )

    def _update_gauges(self):
        metrics = self.telemetry.metrics
        metrics.set_gauge(
            "service.jobs_active", len(self._active_jobs())
        )
        metrics.set_gauge(
            "service.shards_inflight",
            sum(1 for worker in self.fleet.busy_workers()
                if worker.task and worker.task["kind"] == "shard"),
        )
        metrics.set_gauge(
            "service.fleet_workers", len(self.fleet._workers)
        )

    # -- shutdown --------------------------------------------------------

    def close(self):
        self.fleet.stop()
        # The final Prometheus rewrite (PromFileSink.close) publishes
        # the drain gauges even though the ticker is gone.
        self.telemetry.emit(
            "run_finished", workload="service", findings=0, stats={},
        )
        self.telemetry.close()
