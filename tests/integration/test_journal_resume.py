"""Resumable run journal: kill a run, resume it, get the same report.

The journal records one NDJSON entry per completed failure-point
outcome under a config+trace checksum header.  ``--resume`` must (a)
splice journaled outcomes back byte-identically, (b) refuse a journal
recorded for a different run, (c) tolerate a journal truncated by a
mid-run kill, and (d) retry — not resurrect — quarantined points.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import repro

from repro.core import DetectorConfig, XFDetector
from repro.errors import (
    DetectorError,
    HarnessError,
    JournalError,
    JournalMismatchError,
)
from repro.pm.snapshot import SnapshotStore
from repro.workloads import HashmapAtomicWorkload


def _workload(test_size=3):
    return HashmapAtomicWorkload(
        faults={"skip_persist_count"}, test_size=test_size
    )


def _run(test_size=3, **config_kwargs):
    config = DetectorConfig(**config_kwargs)
    return XFDetector(config).run(_workload(test_size))


def _report_dict(report):
    data = report.to_dict(unique=False)
    data["stats"] = {
        key: value for key, value in data["stats"].items()
        if not key.endswith("seconds")
    }
    return data


def _read_journal(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestJournalRecording:
    def test_journal_has_header_and_one_entry_per_point(self, tmp_path):
        path = str(tmp_path / "run.ndjson")
        report = _run(journal=path)
        records = _read_journal(path)
        header, entries = records[0], records[1:]
        assert header["type"] == "header"
        assert header["workload"] == "hashmap_atomic"
        assert len(header["checksum"]) == 64
        assert all(record["type"] == "post" for record in entries)
        assert len(entries) == report.stats.post_runs_analyzed
        # Journaling must not change the report itself.
        assert _report_dict(report) == _report_dict(_run())

    def test_journal_refused_under_audit(self, tmp_path):
        path = str(tmp_path / "run.ndjson")
        with pytest.raises(DetectorError):
            _run(journal=path, audit=True)


class TestResume:
    def test_full_resume_reproduces_the_report(self, tmp_path):
        first_path = str(tmp_path / "first.ndjson")
        reference = _report_dict(_run(journal=first_path))
        resumed = _run(
            resume=first_path,
            journal=str(tmp_path / "second.ndjson"),
        )
        assert _report_dict(resumed) == reference
        assert resumed.telemetry.metrics.value(
            "journal.points_resumed"
        ) == resumed.stats.post_runs_analyzed

    def test_resume_carries_entries_into_the_new_journal(
        self, tmp_path
    ):
        first_path = str(tmp_path / "first.ndjson")
        second_path = str(tmp_path / "second.ndjson")
        _run(journal=first_path)
        _run(resume=first_path, journal=second_path)
        first = _read_journal(first_path)
        second = _read_journal(second_path)
        assert second[0]["checksum"] == first[0]["checksum"]
        key = lambda r: (r["fid"], r["variant"] or -1)
        assert sorted(second[1:], key=key) == sorted(
            first[1:], key=key
        )

    def test_mid_run_kill_then_resume(self, tmp_path):
        """A journal truncated mid-run (the kill scenario: every write
        is flushed, so at most the final record is lost) resumes into
        a report equal to the uninterrupted one."""
        full_path = tmp_path / "full.ndjson"
        reference = _report_dict(_run(journal=str(full_path)))
        lines = full_path.read_text().splitlines(keepends=True)
        assert len(lines) > 3
        killed_path = tmp_path / "killed.ndjson"
        killed_path.write_text("".join(lines[:-2]))
        resumed = _run(
            resume=str(killed_path),
            journal=str(tmp_path / "resumed.ndjson"),
        )
        assert _report_dict(resumed) == reference
        # The dropped points were genuinely re-executed.
        assert resumed.telemetry.metrics.value(
            "journal.points_resumed"
        ) == len(lines) - 3  # header + 2 truncated records

    def test_resume_in_place_appends(self, tmp_path):
        """``--resume PATH`` without ``--journal`` continues appending
        to the same file instead of truncating it."""
        path = tmp_path / "run.ndjson"
        _run(journal=str(path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        _run(resume=str(path))
        records = _read_journal(str(path))
        headers = [r for r in records if r["type"] == "header"]
        assert len(headers) == 1
        assert len(records) == len(lines)


class TestCheckoutMove:
    def test_resume_from_another_checkout_keeps_unique_bugs(
        self, tmp_path
    ):
        """A journal written with the package at one root and resumed
        with it at another: journaled call sites resolve against the
        running package, so a bug spliced from the journal and the
        same bug found fresh are one unique bug, as in a fresh run."""
        package = os.path.dirname(os.path.abspath(repro.__file__))
        roots = []
        for name in ("first", "second"):
            root = tmp_path / name
            shutil.copytree(
                package, root / "repro",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            roots.append(root)

        def run(root, *extra):
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "run",
                 "hashmap_atomic", "--fault", "skip_persist_count",
                 "--test", "3", "--json", "--quiet", *extra],
                cwd=tmp_path, capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=str(root)),
            )
            assert proc.returncode == 1, proc.stderr
            return json.loads(proc.stdout)["bugs"]

        journal = tmp_path / "first.ndjson"
        run(roots[0], "--journal", str(journal))
        # Keep the first half of the points: the rest run fresh from
        # the second root, next to bugs spliced from the first.
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[:len(lines) // 2]))
        resumed = run(
            roots[1], "--resume", str(journal),
            "--journal", str(tmp_path / "second.ndjson"),
        )
        assert resumed == run(roots[1])


class TestResumeRefusals:
    def test_checksum_mismatch_is_refused(self, tmp_path):
        path = str(tmp_path / "run.ndjson")
        _run(test_size=3, journal=path)
        with pytest.raises(JournalMismatchError):
            _run(test_size=2, resume=path)

    def test_config_change_is_refused(self, tmp_path):
        path = str(tmp_path / "run.ndjson")
        _run(journal=path)
        with pytest.raises(JournalMismatchError):
            _run(resume=path, trust_allocator_zeroing=True)

    def test_missing_journal_is_a_journal_error(self, tmp_path):
        with pytest.raises(JournalError):
            _run(resume=str(tmp_path / "nope.ndjson"))

    def test_headerless_journal_is_a_journal_error(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"type": "post", "fid": 0}\n')
        with pytest.raises(JournalError):
            _run(resume=str(path))


class TestQuarantineInteraction:
    def test_quarantined_points_retry_on_resume(
        self, tmp_path, monkeypatch
    ):
        """Run 1 quarantines a point (harness fault) — the journal
        deliberately omits it.  Run 2, resumed with the fault gone,
        re-executes exactly that point and produces the clean run's
        report."""
        reference = _report_dict(_run())
        broken_fid = 1
        original = SnapshotStore.deltas

        def deltas(self, fid):
            if fid == broken_fid:
                raise HarnessError(
                    "snapshot store corrupted", phase="post_exec"
                )
            return original(self, fid)

        journal_path = str(tmp_path / "degraded.ndjson")
        monkeypatch.setattr(SnapshotStore, "deltas", deltas)
        degraded = _run(journal=journal_path)
        monkeypatch.setattr(SnapshotStore, "deltas", original)
        assert degraded.degraded
        journaled_fids = {
            record["fid"]
            for record in _read_journal(journal_path)
            if record["type"] == "post"
        }
        assert broken_fid not in journaled_fids

        healed = _run(
            resume=journal_path,
            journal=str(tmp_path / "healed.ndjson"),
        )
        assert _report_dict(healed) == reference
        assert not healed.degraded
