"""The detection service end-to-end: sharded jobs, crash recovery,
reclamation, drain, and the REST API.

The contract under test is the service's acceptance matrix:

* a job sharded over the fleet produces a merged report **byte-
  identical** to the one-shot pipeline — including when the daemon is
  killed mid-job and a fresh scheduler resumes from the journals
  (two workloads);
* an injected shard death (SIGKILL) and a hang (SIGSTOP under a
  short heartbeat timeout) both end in DONE or DEGRADED — never a
  silently incomplete report;
* a drain journals in-flight work so a new scheduler finishes the
  job, byte-identically;
* the REST API (serve/submit/status/report/events/metrics/drain)
  works over a real daemon process.

Scheduler tests run the loop in-process (stepping it directly makes
crash points deterministic); only the API test forks a real daemon.
The scheduler's blocking command API must never be called from the
loop thread (it would deadlock on its own reply event), so these
tests enqueue ``_Command`` objects and ``step()`` by hand.
"""

import json
import os
import signal
import time
import urllib.request

import pytest

from repro.core import XFDetector
from repro.exec.pool import WarmProcessExecutor
from repro.service import FleetSettings, JobStore, Reaper
from repro.service.scheduler import Scheduler, _Command
from repro.service.spec import JobSpec

pytestmark = pytest.mark.skipif(
    not WarmProcessExecutor.available(),
    reason="fork start method required",
)

HASHMAP = {
    "workload": "hashmap_atomic",
    "faults": ["bug1_unpersisted_create"],
    "test_size": 3,
    "shards": 2,
}
BTREE = {"workload": "btree", "faults": [], "test_size": 3,
         "shards": 3}


def _oneshot(spec_dict):
    """The reference report of the plain one-shot pipeline."""
    spec = JobSpec.from_dict(spec_dict)
    report = XFDetector(spec.detector_config()).run(
        spec.build_workload()
    )
    text = report.format(unique=True)
    if not text.endswith("\n"):
        text += "\n"
    return text, json.loads(report.to_json(unique=True))


def _detection_view(payload):
    """The detection-relevant slice of a JSON report: bugs and plan
    accounting, not scheduling counters (a journal-resumed merge
    legitimately executes fewer points than the one-shot run) or
    timings."""
    return {
        "workload": payload["workload"],
        "bugs": payload["bugs"],
        "degraded": payload["degraded"],
        "failure_points": payload["stats"]["failure_points"],
        "benign_races": payload["stats"]["benign_races"],
    }


def _scheduler(tmp_path, **kwargs):
    settings = kwargs.pop("settings", None) or FleetSettings(
        workers=2, shard_jobs=1
    )
    store = JobStore(str(tmp_path))
    scheduler = Scheduler(store, settings, **kwargs)
    scheduler.start()
    return store, scheduler


def _submit(scheduler, spec_dict):
    command = _Command("submit", spec_dict)
    scheduler._commands.put(command)
    scheduler.step(poll=0.05)
    if command.error is not None:
        raise command.error
    return command.result


def _run_until_shard_runs(scheduler, store, job_id):
    """Step until some shard of the job is running.  A short poll: a
    step that dispatches a shard must return before the shard can
    finish, or the running state is never observed."""
    return _run_until(
        scheduler, store, job_id,
        lambda r: any(s.status == "running" for s in r.shards),
        poll=0.01,
    )


def _run_until(scheduler, store, job_id, condition, max_seconds=180,
               poll=0.1):
    deadline = time.monotonic() + max_seconds
    while time.monotonic() < deadline:
        scheduler.step(poll=poll)
        record = store.load(job_id)
        if condition(record):
            return record
    raise AssertionError(
        f"condition not reached for {job_id}; last record: "
        f"{store.load(job_id).to_dict()}"
    )


def _crash(scheduler):
    """Simulate a daemon crash: SIGKILL the fleet, drop the loop."""
    for worker in list(scheduler.fleet._workers):
        worker.process.kill()
        worker.process.join(5.0)
    scheduler.fleet._workers = []
    scheduler.telemetry.close()


def _shard_victim(scheduler):
    """The fleet worker currently running a shard task."""
    for worker in scheduler.fleet.busy_workers():
        if worker.task and worker.task["kind"] == "shard":
            return worker
    raise AssertionError("no shard in flight")


def _assert_identical(store, job_id, spec_dict):
    text, payload = _oneshot(spec_dict)
    with open(store.report_path(job_id, "text")) as handle:
        assert handle.read() == text
    with open(store.report_path(job_id, "json")) as handle:
        merged = json.load(handle)
    assert _detection_view(merged) == _detection_view(payload)


class TestShardedJobs:
    def test_job_completes_and_matches_oneshot(self, tmp_path):
        store, scheduler = _scheduler(tmp_path)
        try:
            job_id = _submit(scheduler, HASHMAP)
            record = _run_until(
                scheduler, store, job_id, lambda r: r.finished
            )
            assert record.state == "DONE"
            assert record.planned_points > 0
            assert all(s.status == "done" for s in record.shards)
        finally:
            scheduler.close()
        _assert_identical(store, job_id, HASHMAP)

    def test_restart_mid_job_two_workloads(self, tmp_path):
        """Kill the daemon mid-job; a fresh scheduler resumes both
        jobs from their journals to byte-identical reports."""
        store, scheduler = _scheduler(
            tmp_path,
            settings=FleetSettings(workers=2, shard_jobs=2),
        )
        try:
            first = _submit(scheduler, HASHMAP)
            second = _submit(scheduler, BTREE)
            # Let the first job make real progress (some shard
            # journaled) but crash before everything finished.
            _run_until(
                scheduler, store, first,
                lambda r: any(s.status == "done" for s in r.shards)
                or r.finished,
            )
        except BaseException:
            scheduler.close()
            raise
        _crash(scheduler)

        store2, scheduler2 = _scheduler(
            tmp_path,
            settings=FleetSettings(workers=2, shard_jobs=2),
        )
        try:
            # Recovery happened in start(): both jobs reloaded,
            # running shards requeued.
            for job_id in (first, second):
                record = _run_until(
                    scheduler2, store2, job_id,
                    lambda r: r.finished,
                )
                assert record.state == "DONE"
        finally:
            scheduler2.close()
        _assert_identical(store2, first, HASHMAP)
        _assert_identical(store2, second, BTREE)

    def test_shard_sigkill_never_silent_loss(self, tmp_path):
        """SIGKILL a fleet worker mid-shard: the scheduler sees the
        death, requeues the shard, and the job still ends DONE with
        the exact one-shot report."""
        store, scheduler = _scheduler(tmp_path)
        try:
            job_id = _submit(scheduler, HASHMAP)
            _run_until_shard_runs(scheduler, store, job_id)
            victim = _shard_victim(scheduler)
            shard_id = victim.task["shard_id"]
            os.kill(victim.process.pid, signal.SIGKILL)
            record = _run_until(
                scheduler, store, job_id, lambda r: r.finished
            )
            assert record.state in ("DONE", "DEGRADED")
            killed = record.shard(shard_id)
            assert killed.attempts + killed.reclaims >= 2
        finally:
            scheduler.close()
        if record.state == "DONE":
            _assert_identical(store, job_id, HASHMAP)
        # Never silent loss: the merged report covers the whole plan.
        with open(store.report_path(job_id, "json")) as handle:
            merged = json.load(handle)
        assert merged["stats"]["failure_points"] == \
            record.planned_points

    def test_hang_is_reclaimed(self, tmp_path):
        """SIGSTOP a shard worker: heartbeats stop, the reaper kills
        and requeues it, and the job still completes."""
        store, scheduler = _scheduler(
            tmp_path,
            reaper=Reaper(heartbeat_timeout=1.0,
                          max_shard_retries=2, backoff_base=0.1),
        )
        spec = dict(HASHMAP, shards=1)
        try:
            job_id = _submit(scheduler, spec)
            _run_until_shard_runs(scheduler, store, job_id)
            victim = _shard_victim(scheduler)
            os.kill(victim.process.pid, signal.SIGSTOP)
            record = _run_until(
                scheduler, store, job_id, lambda r: r.finished
            )
            assert record.state in ("DONE", "DEGRADED")
            assert record.shard(0).reclaims >= 1
        finally:
            scheduler.close()
        if record.state == "DONE":
            _assert_identical(store, job_id, spec)

    def test_abandoned_shard_degrades_then_merge_recovers(
            self, tmp_path):
        """A shard over its reclaim budget is abandoned and the job
        degrades — but the merge run re-executes the abandoned range
        live, so the job recovers to DONE with a complete,
        byte-identical report."""
        store, scheduler = _scheduler(
            tmp_path,
            reaper=Reaper(heartbeat_timeout=1.0,
                          max_shard_retries=0, backoff_base=0.1),
        )
        try:
            job_id = _submit(scheduler, HASHMAP)
            _run_until_shard_runs(scheduler, store, job_id)
            victim = _shard_victim(scheduler)
            shard_id = victim.task["shard_id"]
            os.kill(victim.process.pid, signal.SIGSTOP)
            record = _run_until(
                scheduler, store, job_id, lambda r: r.finished
            )
            assert record.shard(shard_id).status == "abandoned"
            assert record.state == "DONE"
        finally:
            scheduler.close()
        _assert_identical(store, job_id, HASHMAP)

    def test_cancel(self, tmp_path):
        store, scheduler = _scheduler(tmp_path)
        try:
            job_id = _submit(scheduler, HASHMAP)
            command = _Command("cancel", job_id)
            scheduler._commands.put(command)
            scheduler.step(poll=0.05)
            assert command.error is None
            record = store.load(job_id)
            assert record.state == "CANCELLED" and record.finished
        finally:
            scheduler.close()


class TestStartup:
    def test_unloadable_spec_fails_its_job(self, tmp_path):
        """An unfinished job whose persisted spec names a knob this
        version dropped fails on startup; the daemon still starts."""
        store = JobStore(str(tmp_path))
        job_id = store.create(JobSpec.from_dict(BTREE)).job_id
        with open(store.spec_path(job_id)) as handle:
            spec = json.load(handle)
        spec["static_prune"] = False
        with open(store.spec_path(job_id), "w") as handle:
            json.dump(spec, handle)
        store, scheduler = _scheduler(tmp_path)
        try:
            record = store.load(job_id)
            assert record.state == "FAILED" and record.finished
            assert "static_prune" in record.detail
            assert job_id not in scheduler.jobs
        finally:
            scheduler.close()


class TestDrain:
    def test_drain_journals_and_resume_completes(self, tmp_path):
        store, scheduler = _scheduler(tmp_path)
        try:
            job_id = _submit(scheduler, HASHMAP)
            _run_until_shard_runs(scheduler, store, job_id)
            scheduler._commands.put(_Command("drain", None))
            deadline = time.monotonic() + 90
            while not scheduler.drained and \
                    time.monotonic() < deadline:
                scheduler.step(poll=0.1)
            assert scheduler.drained
        finally:
            scheduler.close()

        record = store.load(job_id)
        assert not record.finished  # drained mid-job, not lost
        assert all(
            s.status in ("pending", "done") for s in record.shards
        )
        with open(store.prom_path()) as handle:
            assert "xfd_service_drain_seconds" in handle.read()

        store2, scheduler2 = _scheduler(tmp_path)
        try:
            record = _run_until(
                scheduler2, store2, job_id, lambda r: r.finished
            )
            assert record.state == "DONE"
        finally:
            scheduler2.close()
        _assert_identical(store2, job_id, HASHMAP)

    def test_drain_refuses_new_jobs(self, tmp_path):
        from repro.service.spec import SpecError

        store, scheduler = _scheduler(tmp_path)
        try:
            drain = _Command("drain", None)
            refused = _Command("submit", HASHMAP)
            scheduler._commands.put(drain)
            scheduler._commands.put(refused)
            scheduler.step(poll=0.05)
            assert drain.result is True
            assert isinstance(refused.error, SpecError)
        finally:
            scheduler.close()


class TestServiceGauges:
    def test_prom_textfile_has_fleet_gauges(self, tmp_path):
        store, scheduler = _scheduler(tmp_path)
        try:
            job_id = _submit(scheduler, HASHMAP)
            _run_until(
                scheduler, store, job_id, lambda r: r.finished
            )
        finally:
            scheduler.close()
        with open(store.prom_path()) as handle:
            text = handle.read()
        for gauge in (
            "xfd_service_jobs_active",
            "xfd_service_shards_inflight",
            "xfd_service_fleet_workers",
        ):
            assert gauge in text


class TestServiceDaemonHTTP:
    def test_rest_roundtrip(self, tmp_path):
        """One real daemon process: submit over HTTP, read status,
        report, events, and metrics, then drain via the API and
        check the clean exit."""
        import subprocess
        import sys

        repo = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo, "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--state-dir", str(tmp_path), "--workers", "2"],
            env=env, cwd=repo,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            url = self._wait_for_daemon(tmp_path)
            health = self._get_json(url + "/healthz")
            assert health["ok"] is True

            body = json.dumps(HASHMAP).encode()
            request = urllib.request.Request(
                url + "/api/v1/jobs", data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as resp:
                job_id = json.loads(resp.read())["job_id"]

            deadline = time.monotonic() + 180
            while time.monotonic() < deadline:
                record = self._get_json(
                    f"{url}/api/v1/jobs/{job_id}"
                )
                if record["finished"]:
                    break
                time.sleep(0.3)
            assert record["state"] == "DONE"

            with urllib.request.urlopen(
                f"{url}/api/v1/jobs/{job_id}/report?format=text",
                timeout=30,
            ) as resp:
                text = resp.read().decode()
            reference, _payload = _oneshot(HASHMAP)
            assert text == reference

            with urllib.request.urlopen(
                f"{url}/api/v1/jobs/{job_id}/events", timeout=30
            ) as resp:
                kinds = [
                    json.loads(line)["kind"]
                    for line in resp.read().decode().splitlines()
                    if line.strip()
                ]
            assert "run_started" in kinds
            assert "run_finished" in kinds

            with urllib.request.urlopen(
                url + "/metrics", timeout=30
            ) as resp:
                metrics = resp.read().decode()
            assert "xfd_service_fleet_workers" in metrics

            drain = urllib.request.Request(
                url + "/api/v1/drain", data=b"{}",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(drain, timeout=30) as resp:
                assert json.loads(resp.read())["draining"] is True
            assert proc.wait(timeout=90) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def _wait_for_daemon(self, state_dir, timeout=30):
        from repro.service.daemon import daemon_alive, read_daemon_info

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            info = read_daemon_info(str(state_dir))
            if daemon_alive(info):
                return info["url"]
            time.sleep(0.2)
        raise AssertionError("daemon never came up")

    def _get_json(self, url):
        with urllib.request.urlopen(url, timeout=30) as resp:
            return json.loads(resp.read())
