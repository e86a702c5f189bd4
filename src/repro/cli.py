"""Command-line runner, mirroring the paper artifact's run scripts.

Examples::

    xfdetector run btree --init 5 --test 5 --fault skip_add_leaf
    xfdetector run --workload redis --test 3
    xfdetector run hashmap_atomic --fault bug1_unpersisted_create \\
        --audit --profile
    xfdetector profile hashmap_tx --test 2 --ndjson /tmp/run.ndjson
    xfdetector lint hashmap_atomic --fault skip_persist_buckets_init
    xfdetector lint --all --baseline benchmarks/results/lint_baseline.txt
    xfdetector list-workloads
    xfdetector list-faults hashmap_atomic
    xfdetector new-bugs
    xfdetector suite --workload btree
    xfdetector trace hashmap_tx --test 2 --dump /tmp/pre.trace

(equivalent to ``python -m repro.cli ...``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.core import DetectorConfig, XFDetector
from repro.pm.image import CrashImageMode
from repro.workloads import ALL_WORKLOADS


def _add_workload_args(parser):
    """Workload selection + sizing flags shared by run/profile."""
    parser.add_argument("workload", nargs="?", default=None,
                        choices=sorted(ALL_WORKLOADS))
    parser.add_argument("--workload", dest="workload_flag",
                        default=None, choices=sorted(ALL_WORKLOADS),
                        help="workload name (alternative to the "
                             "positional argument)")
    parser.add_argument("--init", type=int, default=0,
                        help="insertions when initializing the PM "
                             "image (INITSIZE)")
    parser.add_argument("--test", type=int, default=1,
                        help="operations under test (TESTSIZE)")
    parser.add_argument("--fault", action="append", default=[],
                        help="synthetic fault flag (repeatable); see "
                             "list-faults")


def _add_telemetry_args(parser):
    parser.add_argument("--profile", action="store_true",
                        help="print the span-tree profile and metrics "
                             "after the report")
    parser.add_argument("--audit", action="store_true",
                        help="record every shadow-PM state transition "
                             "(opt-in; slows the backend)")
    parser.add_argument("--ndjson", default=None, metavar="PATH",
                        help="write the run's records (bugs, stats, "
                             "spans, metrics, audit) as NDJSON to "
                             "PATH")


def _resolve_workload_name(args):
    if args.workload and args.workload_flag:
        if args.workload != args.workload_flag:
            print(
                f"xfdetector: error: conflicting workloads: "
                f"positional {args.workload!r} vs --workload "
                f"{args.workload_flag!r}",
                file=sys.stderr,
            )
            raise SystemExit(2)
        return args.workload
    name = args.workload or args.workload_flag
    if name is None:
        print(
            "xfdetector: error: a workload is required "
            "(positional or --workload)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return name


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="xfdetector",
        description="Cross-failure bug detection for PM programs "
                    "(XFDetector reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run detection on one workload")
    _add_workload_args(run)
    run.add_argument("--strict-image", action="store_true",
                     help="run post-failure stages on persisted-only "
                          "crash images")
    run.add_argument("--max-failure-points", type=int, default=None)
    run.add_argument("--no-perf-bugs", action="store_true",
                     help="suppress performance-bug reports")
    run.add_argument("--all-occurrences", action="store_true",
                     help="print every occurrence, not deduplicated "
                          "bugs")
    run.add_argument("--crash-states", type=int, default=0,
                     metavar="N",
                     help="sample N extra crash states per failure "
                          "point (pmreorder-style fuzzing)")
    run.add_argument("--plan-mode", default=None,
                     choices=("exhaustive", "mechanism", "hybrid"),
                     help="crash-plan mode: exhaustive injects every "
                          "failure point; mechanism infers the "
                          "workload's crash-consistency mechanisms "
                          "and keeps only each epoch's invariant-"
                          "relevant points; hybrid collapses only "
                          "transaction epochs (default: exhaustive)")
    run.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="fan post-failure executions out over a "
                          "warm pool of N worker processes "
                          "(default: XFD_JOBS or 1 = serial; reports "
                          "are identical at any width)")
    run.add_argument("--batch-size", type=int, default=None,
                     metavar="N",
                     help="failure points per worker dispatch: "
                          "contiguous points batch so per-task IPC "
                          "amortizes and the replay-prefix memo "
                          "advances across the whole batch (default: "
                          "XFD_BATCH_SIZE or 8; 1 disables batching)")
    run.add_argument("--deadline", type=float, default=None,
                     metavar="SECONDS",
                     help="wall-clock budget per post-failure "
                          "execution; a livelocked task is "
                          "killed and recorded as a hang incident "
                          "(default: XFD_DEADLINE or none)")
    run.add_argument("--max-retries", type=int, default=None,
                     metavar="N",
                     help="retries for transient worker faults before "
                          "a failure point is quarantined (default 2)")
    run.add_argument("--journal", default=None, metavar="PATH",
                     help="append each completed failure-point "
                          "outcome to PATH (NDJSON) so a killed run "
                          "can be resumed")
    run.add_argument("--resume", default=None, metavar="PATH",
                     help="resume from a previous run's journal: "
                          "validate its config+trace checksum and "
                          "skip completed failure points")
    run.add_argument("--json", action="store_true",
                     help="print the report as JSON")
    run.add_argument("--events", default=None, metavar="PATH",
                     help="append the run's live event stream "
                          "(repro.obs.live NDJSON) to PATH")
    run.add_argument("--prom-textfile", default=None, metavar="PATH",
                     help="write Prometheus textfile-collector "
                          "exposition to PATH, atomically rewritten "
                          "on every heartbeat")
    run.add_argument("--progress", action="store_true",
                     help="force the live progress line on stderr "
                          "even when it is not a TTY")
    run.add_argument("--quiet", action="store_true",
                     help="suppress the live progress line even on "
                          "a TTY")
    run.add_argument("--heartbeat-interval", type=float, default=None,
                     metavar="SECONDS",
                     help="live-bus heartbeat cadence (default 1.0)")
    _add_telemetry_args(run)

    lint = sub.add_parser(
        "lint", help="static PM-misuse analysis (no execution of the "
                     "detection pipeline)"
    )
    lint.add_argument("workload", nargs="?", default=None,
                      choices=sorted(ALL_WORKLOADS))
    lint.add_argument("--all", action="store_true",
                      help="lint every workload (clean configuration)")
    lint.add_argument("--init", type=int, default=2,
                      help="insertions during setup (canonical lint "
                           "sizing; small sizes keep path enumeration "
                           "exhaustive)")
    lint.add_argument("--test", type=int, default=3,
                      help="operations under test (canonical lint "
                           "sizing)")
    lint.add_argument("--fault", action="append", default=[],
                      help="synthetic fault flag (repeatable)")
    lint.add_argument("--trace", default=None, metavar="PATH",
                      help="offline mode: check a serialized trace "
                           "(see the trace subcommand's --dump) "
                           "instead of interpreting a workload")
    lint.add_argument("--mechanisms", action="store_true",
                      help="also run trace-level mechanism inference "
                           "over the six Table 1 mechanism workloads "
                           "and report XF-M invariant violations")
    lint.add_argument("--sarif", default=None, metavar="PATH",
                      help="write the findings as a SARIF 2.1.0 log "
                           "to PATH (for CI code-scanning upload)")
    lint.add_argument("--json", action="store_true",
                      help="print the report as JSON")
    lint.add_argument("--ndjson", default=None, metavar="PATH",
                      help="write findings + stats as NDJSON to PATH")
    lint.add_argument("--baseline", default=None, metavar="PATH",
                      help="suppress findings recorded in this "
                           "baseline file; exit 0 unless new findings "
                           "appear")
    lint.add_argument("--write-baseline", default=None, metavar="PATH",
                      help="write the current findings as a baseline "
                           "file and exit 0")

    profile = sub.add_parser(
        "profile", help="run detection and print the telemetry "
                        "profile (span tree + metrics)"
    )
    _add_workload_args(profile)
    _add_telemetry_args(profile)
    profile.add_argument("--top", type=int, default=None, metavar="N",
                         help="print the N span names with the "
                              "largest aggregate self time instead "
                              "of the full tree")
    profile.add_argument("--folded", action="store_true",
                         help="print folded stacks "
                              "(name;child microseconds) for "
                              "flamegraph tooling instead of the "
                              "tree")

    report_cmd = sub.add_parser(
        "report", help="render a recorded run (--events stream, "
                       "optionally joined with --ndjson span "
                       "records) as a self-contained HTML report"
    )
    report_cmd.add_argument("events", metavar="EVENTS",
                            help="live event-stream file written by "
                                 "run --events")
    report_cmd.add_argument("--ndjson", default=None, metavar="PATH",
                            help="the same run's --ndjson records; "
                                 "its spans become the report's "
                                 "flamegraph")
    report_cmd.add_argument("--out", default=None, metavar="PATH",
                            help="output HTML path (default: the "
                                 "events path with a .html suffix)")
    report_cmd.add_argument("--title", default=None,
                            help="report heading (default: workload "
                                 "name)")

    faults = sub.add_parser(
        "list-faults", help="show a workload's fault flags"
    )
    faults.add_argument("workload", choices=sorted(ALL_WORKLOADS))

    sub.add_parser("list-workloads", help="show available workloads")
    sub.add_parser("new-bugs",
                   help="reproduce the paper's four new bugs "
                        "(Section 6.3.2)")

    suite = sub.add_parser(
        "suite", help="run the Table 5 synthetic bug suite"
    )
    suite.add_argument("--workload", default=None,
                       help="restrict to one workload")

    trace = sub.add_parser(
        "trace", help="trace a workload's pre-failure stage and print "
                      "statistics (no detection)"
    )
    trace.add_argument("workload", choices=sorted(ALL_WORKLOADS))
    trace.add_argument("--init", type=int, default=0)
    trace.add_argument("--test", type=int, default=1)
    trace.add_argument("--fault", action="append", default=[])
    trace.add_argument("--dump", default=None, metavar="PATH",
                       help="write the trace text to PATH")

    inspect = sub.add_parser(
        "inspect", help="run a workload, crash it at one failure "
                        "point, and dump the pool internals of the "
                        "crash image"
    )
    inspect.add_argument("workload", choices=sorted(ALL_WORKLOADS))
    inspect.add_argument("--init", type=int, default=0)
    inspect.add_argument("--test", type=int, default=1)
    inspect.add_argument("--fault", action="append", default=[])
    inspect.add_argument("--failure-point", type=int, default=None,
                         help="which failure point to crash at "
                              "(default: the middle one)")
    inspect.add_argument("--strict-image", action="store_true")

    def _add_state_dir(cmd):
        cmd.add_argument("--state-dir", default=None, metavar="DIR",
                         help="service state directory (default: "
                              "XFD_SERVICE_DIR or ~/.xfdetector)")

    serve = sub.add_parser(
        "serve", help="run the detection daemon: accept jobs over a "
                      "local REST API, shard them over a warm worker "
                      "fleet, and survive crashes via journals"
    )
    _add_state_dir(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="API port (default: ephemeral; the bound "
                            "port is advertised in daemon.json)")
    serve.add_argument("--workers", type=int, default=2,
                       help="fleet worker processes (default 2)")
    serve.add_argument("--shard-jobs", type=int, default=1,
                       help="executor width inside each fleet worker "
                            "(default 1 = serial; >1 keeps a warm "
                            "process pool alive across jobs)")
    serve.add_argument("--batch-size", type=int, default=8,
                       help="failure points per warm-pool dispatch")
    serve.add_argument("--heartbeat-timeout", type=float, default=10.0,
                       help="seconds without a shard heartbeat before "
                            "the reaper reclaims it")
    serve.add_argument("--shard-timeout", type=float, default=None,
                       help="wall-clock budget per shard attempt "
                            "(reclaimed even while heartbeating)")
    serve.add_argument("--max-shard-retries", type=int, default=2,
                       help="reclaims before a shard is abandoned and "
                            "the job degrades (default 2)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       help="seconds a drain waits for in-flight "
                            "shards before killing them (their "
                            "journals keep the progress)")

    submit = sub.add_parser(
        "submit", help="submit a detection job to a running daemon"
    )
    _add_state_dir(submit)
    submit.add_argument("workload", choices=sorted(ALL_WORKLOADS))
    submit.add_argument("--init", type=int, default=0)
    submit.add_argument("--test", type=int, default=4)
    submit.add_argument("--fault", action="append", default=[])
    submit.add_argument("--shards", type=int, default=2,
                        help="contiguous failure-point ranges the job "
                             "is split into (default 2)")
    submit.add_argument("--strict-image", action="store_true")
    submit.add_argument("--no-perf-bugs", action="store_true")
    submit.add_argument("--crash-states", type=int, default=0)
    submit.add_argument("--plan-mode", default=None,
                        choices=("exhaustive", "mechanism", "hybrid"))
    submit.add_argument("--max-failure-points", type=int, default=None)
    submit.add_argument("--deadline", type=float, default=None,
                        help="per-execution wall-clock budget inside "
                             "shards")
    submit.add_argument("--max-retries", type=int, default=None)
    submit.add_argument("--label", default=None)
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes, then "
                             "print its report (exit 1 when bugs "
                             "were found, 3 when the job failed)")

    status = sub.add_parser(
        "status", help="show service jobs (reads the state directory "
                       "directly; works with or without a daemon)"
    )
    _add_state_dir(status)
    status.add_argument("job_id", nargs="?", default=None)
    status.add_argument("--json", action="store_true")

    cancel = sub.add_parser(
        "cancel", help="cancel a service job on a running daemon"
    )
    _add_state_dir(cancel)
    cancel.add_argument("job_id")

    doctor = sub.add_parser(
        "doctor", help="scan for leaked shared-memory segments, stale "
                       "daemon records, and abandoned job journals"
    )
    _add_state_dir(doctor)
    doctor.add_argument("--clean", action="store_true",
                        help="remove what is safely removable")
    doctor.add_argument("--json", action="store_true")
    return parser


def _make_workload(name, args):
    cls = ALL_WORKLOADS[name]
    return cls(
        faults=set(args.fault),
        init_size=args.init,
        test_size=args.test,
    )


def _write_run_ndjson(path, report):
    from repro.obs import run_records, write_ndjson

    try:
        count = write_ndjson(path, run_records(report))
    except OSError as exc:
        print(
            f"xfdetector: error: cannot write NDJSON to "
            f"{path}: {exc}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    # stderr: under --json, stdout is a machine-readable document.
    print(
        f"-- {count} NDJSON records written to {path}",
        file=sys.stderr,
    )


def _cmd_run(args):
    name = _resolve_workload_name(args)
    workload = _make_workload(name, args)
    overrides = {}
    if args.jobs is not None:
        overrides["jobs"] = max(1, args.jobs)
    if args.batch_size is not None:
        overrides["batch_size"] = max(1, args.batch_size)
    if args.deadline is not None:
        overrides["exec_deadline"] = (
            args.deadline if args.deadline > 0 else None
        )
    if args.max_retries is not None:
        overrides["max_retries"] = max(0, args.max_retries)
    if args.journal is not None:
        overrides["journal"] = args.journal
    if args.resume is not None:
        overrides["resume"] = args.resume
    if args.events is not None:
        overrides["events"] = args.events
    if args.prom_textfile is not None:
        overrides["prom_textfile"] = args.prom_textfile
    if args.quiet:
        overrides["progress"] = False
    elif args.progress:
        overrides["progress"] = True
    if args.heartbeat_interval is not None:
        overrides["heartbeat_interval"] = max(
            0.0, args.heartbeat_interval
        )
    if args.plan_mode is not None:
        overrides["plan_mode"] = args.plan_mode
    config = DetectorConfig(
        crash_image_mode=(
            CrashImageMode.PERSISTED_ONLY if args.strict_image
            else CrashImageMode.AS_WRITTEN
        ),
        max_failure_points=args.max_failure_points,
        report_perf_bugs=not args.no_perf_bugs,
        crash_state_variants=args.crash_states,
        audit=args.audit,
        **overrides,
    )
    from repro.errors import JournalError

    detector = XFDetector(config)
    try:
        report = detector.run(workload)
    except JournalError as exc:
        print(f"xfdetector: error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    finally:
        # Flush and close the live sinks (event stream, Prometheus
        # textfile, progress line) whether or not the run completed.
        detector.telemetry.close()
    telemetry = report.telemetry
    # Exit status reflects what was *reported*: any bug in the printed
    # report (performance bugs included) is a non-zero exit, so shell
    # pipelines and CI never silently pass a run that printed findings.
    reported = (
        report.unique_bugs() if not args.all_occurrences
        else report.bugs
    )
    status = 1 if reported else 0
    if args.json:
        payload = json.loads(
            report.to_json(unique=not args.all_occurrences)
        )
        if args.profile or args.audit:
            payload["telemetry"] = telemetry.to_dict()
        print(json.dumps(payload, indent=2))
        if args.ndjson:
            _write_run_ndjson(args.ndjson, report)
        return status
    print(report.format(unique=not args.all_occurrences))
    stats = report.stats
    print(
        f"-- {stats.failure_points} failure points, "
        f"{stats.pre_trace_events} pre-trace events, "
        f"{stats.post_trace_events} post-trace events, "
        f"{stats.total_seconds:.2f}s "
        f"(pre {stats.pre_failure_seconds:.2f}s / "
        f"post {stats.post_failure_seconds:.2f}s / "
        f"backend {stats.backend_seconds:.2f}s)"
    )
    if stats.plan_mode != "exhaustive":
        executed = stats.failure_points_executed
        skipped = stats.failure_points_skipped_by_plan
        ratio = (
            stats.failure_points / executed if executed else 0.0
        )
        print(
            f"-- crash plans ({stats.plan_mode}): {executed} of "
            f"{stats.failure_points} failure points executed, "
            f"{skipped} skipped ({ratio:.1f}x fewer than exhaustive)"
        )
    if stats.post_runs_deduped:
        skipped_events = telemetry.metrics.value(
            "replay_events_skipped"
        )
        print(
            f"-- dedup: {stats.post_runs_deduped} post-failure "
            f"run(s) cloned from class representatives "
            f"({skipped_events} events skipped)"
        )
    if report.incidents:
        state = (
            "DEGRADED: some outcomes lost" if report.degraded
            else "all recovered"
        )
        print(
            f"-- {len(report.incidents)} incident(s) absorbed "
            f"({state})"
        )
        for incident in report.incidents:
            print(f"   {incident}")
    if args.profile:
        print()
        print(telemetry.format())
    if args.ndjson:
        _write_run_ndjson(args.ndjson, report)
    elif args.audit and telemetry.audit is not None:
        from repro.obs import to_ndjson

        print("\n-- audit ndjson --")
        print(to_ndjson(telemetry.audit.to_records()))
    return status


def _baseline_key(finding, root):
    return f"{finding.rule} {finding.short_location(root)}"


def _cmd_lint(args):
    import os

    from repro.analysis.lint import lint_workload
    from repro.analysis.tracecheck import analyze_trace

    root = os.getcwd()
    if args.trace:
        if args.workload or args.all or args.mechanisms:
            print(
                "xfdetector: error: --trace is exclusive with a "
                "workload / --all / --mechanisms",
                file=sys.stderr,
            )
            raise SystemExit(2)
        try:
            with open(args.trace) as handle:
                text = handle.read()
        except OSError as exc:
            print(
                f"xfdetector: error: cannot read trace "
                f"{args.trace}: {exc}",
                file=sys.stderr,
            )
            raise SystemExit(2)
        reports = [analyze_trace(text, target=args.trace)]
    else:
        if args.all:
            names = sorted(ALL_WORKLOADS)
        elif args.workload:
            names = [args.workload]
        elif args.mechanisms:
            names = []
        else:
            print(
                "xfdetector: error: a workload, --all, --mechanisms, "
                "or --trace is required",
                file=sys.stderr,
            )
            raise SystemExit(2)
        reports = []
        for name in names:
            workload = ALL_WORKLOADS[name](
                faults=set(args.fault), init_size=args.init,
                test_size=args.test,
            )
            reports.append(lint_workload(workload))
        if args.mechanisms:
            from repro.analysis import analyze_mechanisms_workload
            from repro.mechanisms import MECHANISMS
            from repro.mechanisms.base import MechanismWorkload

            for store_cls in MECHANISMS:
                # Each store validates its flags; only forward the
                # ones it documents.
                flags = tuple(
                    flag for flag in args.fault
                    if flag in store_cls.FAULTS
                )
                workload = MechanismWorkload(
                    store_cls, faults=flags, test_size=4
                )
                reports.append(analyze_mechanisms_workload(workload))

    findings = [f for rep in reports for f in rep.findings]
    if args.write_baseline:
        lines = sorted({_baseline_key(f, root) for f in findings})
        with open(args.write_baseline, "w") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))
        print(
            f"-- baseline with {len(lines)} entr"
            f"{'y' if len(lines) == 1 else 'ies'} written to "
            f"{args.write_baseline}"
        )
        return 0

    baselined = set()
    if args.baseline:
        try:
            with open(args.baseline) as handle:
                baselined = {
                    line.strip() for line in handle
                    if line.strip() and not line.startswith("#")
                }
        except OSError as exc:
            print(
                f"xfdetector: error: cannot read baseline "
                f"{args.baseline}: {exc}",
                file=sys.stderr,
            )
            raise SystemExit(2)
    new = [
        f for f in findings if _baseline_key(f, root) not in baselined
    ]

    if args.json:
        payload = {
            "reports": [rep.to_dict(root) for rep in reports],
            "findings": len(findings),
            "new_findings": len(new),
        }
        print(json.dumps(payload, indent=2))
    else:
        for rep in reports:
            print(rep.format(root))
        if args.baseline:
            print(
                f"-- {len(new)} new finding(s), "
                f"{len(findings) - len(new)} baselined"
            )
    if args.ndjson:
        from repro.obs import write_ndjson

        records = (
            record for rep in reports for record in rep.records(root)
        )
        try:
            count = write_ndjson(args.ndjson, records)
        except OSError as exc:
            print(
                f"xfdetector: error: cannot write NDJSON to "
                f"{args.ndjson}: {exc}",
                file=sys.stderr,
            )
            raise SystemExit(2)
        print(f"-- {count} NDJSON records written to {args.ndjson}")
    if args.sarif:
        from repro.analysis.sarif import to_sarif_json

        try:
            with open(args.sarif, "w") as handle:
                handle.write(to_sarif_json(reports))
        except OSError as exc:
            print(
                f"xfdetector: error: cannot write SARIF to "
                f"{args.sarif}: {exc}",
                file=sys.stderr,
            )
            raise SystemExit(2)
        print(f"-- SARIF log written to {args.sarif}")
    return 1 if new else 0


def _cmd_profile(args):
    name = _resolve_workload_name(args)
    workload = _make_workload(name, args)
    config = DetectorConfig(audit=args.audit)
    detector = XFDetector(config)
    try:
        report = detector.run(workload)
    finally:
        detector.telemetry.close()
    spans = report.telemetry.spans
    if args.folded:
        # Machine format on stdout, nothing else: pipe straight into
        # flamegraph.pl / speedscope.
        for line in spans.folded():
            print(line)
        if args.ndjson:
            _write_run_ndjson(args.ndjson, report)
        return 0
    print(report.summary())
    print()
    if args.top is not None:
        rows = spans.aggregate()[: max(0, args.top)]
        width = max((len(row["name"]) for row in rows), default=4)
        print(
            f"{'span':<{width}}  {'calls':>6}  {'self':>10}  "
            f"{'total':>10}  {'max':>10}"
        )
        for row in rows:
            print(
                f"{row['name']:<{width}}  {row['count']:>6}  "
                f"{row['self_seconds']:>9.4f}s  "
                f"{row['total_seconds']:>9.4f}s  "
                f"{row['max_seconds']:>9.4f}s"
            )
    else:
        print(report.telemetry.format())
    if args.ndjson:
        _write_run_ndjson(args.ndjson, report)
    return 0


def _cmd_report(args):
    from repro.obs.live import SchemaVersionError, read_events
    from repro.obs.live.report_html import render_report

    try:
        events = read_events(args.events)
    except (OSError, ValueError, SchemaVersionError) as exc:
        print(f"xfdetector: error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not events:
        print(
            f"xfdetector: error: {args.events} contains no events",
            file=sys.stderr,
        )
        raise SystemExit(2)
    span_records = []
    if args.ndjson:
        from repro.obs import read_ndjson

        try:
            span_records = [
                record for record in read_ndjson(args.ndjson)
                if record.get("type") == "span"
            ]
        except (OSError, ValueError) as exc:
            print(
                f"xfdetector: error: cannot read NDJSON "
                f"{args.ndjson}: {exc}",
                file=sys.stderr,
            )
            raise SystemExit(2)
    out = args.out
    if out is None:
        base = args.events
        if base.endswith(".ndjson"):
            base = base[: -len(".ndjson")]
        out = base + ".html"
    html_text = render_report(
        events, span_records=span_records, title=args.title
    )
    try:
        with open(out, "w") as handle:
            handle.write(html_text)
    except OSError as exc:
        print(
            f"xfdetector: error: cannot write {out}: {exc}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    print(f"-- HTML report written to {out}")
    return 0


def _cmd_list_workloads(_args):
    for name, cls in sorted(ALL_WORKLOADS.items()):
        print(f"{name:16s} {cls.__doc__.strip().splitlines()[0]}")
    return 0


def _cmd_list_faults(args):
    cls = ALL_WORKLOADS[args.workload]
    if not cls.FAULTS:
        print(f"{args.workload}: no documented fault flags")
        return 0
    for flag, (kind, description) in cls.FAULTS.items():
        print(f"[{kind}] {flag:32s} {description}")
    return 0


def _cmd_new_bugs(_args):
    from repro.bugsuite import NEW_BUGS

    all_found = True
    for scenario in NEW_BUGS:
        report, detected = scenario.run()
        status = "DETECTED" if detected else "MISSED"
        all_found &= detected
        print(f"Bug {scenario.number} [{scenario.software}] {status}")
        print(f"    {scenario.description}")
        for bug in report.unique_bugs()[:3]:
            print(f"    {bug}")
    return 0 if all_found else 1


def _cmd_suite(args):
    from repro.bugsuite import bug_entries, run_bug

    entries = bug_entries(workload=args.workload)
    missed = []
    for bug in entries:
        _report, detected = run_bug(bug)
        print(f"{'OK  ' if detected else 'MISS'} {bug}")
        if not detected:
            missed.append(bug)
    print(f"-- detected {len(entries) - len(missed)}/{len(entries)}")
    return 1 if missed else 0


def _cmd_trace(args):
    from repro.core.frontend import Frontend
    from repro.trace.serialize import format_trace
    from repro.trace.stats import analyze_trace

    cls = ALL_WORKLOADS[args.workload]
    workload = cls(
        faults=set(args.fault), init_size=args.init,
        test_size=args.test,
    )
    config = DetectorConfig(inject_failures=False)
    result = Frontend(config).run(workload)
    stats = analyze_trace(result.pre_recorder)
    print(stats.format())
    if args.dump:
        with open(args.dump, "w") as handle:
            handle.write(format_trace(result.pre_recorder.events))
        print(f"trace written to {args.dump}")
    return 0


def _cmd_inspect(args):
    from repro.core.frontend import Frontend
    from repro.pm.memory import PersistentMemory
    from repro.pm.pool import PMPool
    from repro.pmdk.pmemobj.inspect import inspect_pool
    from repro.trace.recorder import NullRecorder

    cls = ALL_WORKLOADS[args.workload]
    workload = cls(
        faults=set(args.fault), init_size=args.init,
        test_size=args.test,
    )
    result = Frontend(DetectorConfig()).run(workload)
    if not result.failure_points:
        print("no failure points were injected")
        return 1
    index = (
        args.failure_point if args.failure_point is not None
        else len(result.failure_points) // 2
    )
    if not 0 <= index < len(result.failure_points):
        print(
            f"failure point {index} out of range "
            f"[0, {len(result.failure_points)})"
        )
        return 1
    failure_point = result.failure_points[index]
    mode = (
        CrashImageMode.PERSISTED_ONLY if args.strict_image
        else CrashImageMode.AS_WRITTEN
    )
    memory = PersistentMemory(NullRecorder(), capture_ips=False)
    print(
        f"crash image at failure point #{failure_point.fid} "
        f"({failure_point.reason}), {mode.value} mode\n"
    )
    for image in failure_point.images:
        memory.map_pool(PMPool(
            image.pool_name, image.size, image.base,
            data=image.bytes_for(mode),
        ))
        print(inspect_pool(memory, image.pool_name))
        print(
            f"volatile lines at the failure: "
            f"{len(image.volatile_lines)}\n"
        )
    return 0


def _service_state_dir(args):
    if args.state_dir:
        return args.state_dir
    return os.environ.get(
        "XFD_SERVICE_DIR", os.path.expanduser("~/.xfdetector")
    )


def _daemon_url(state_dir):
    """The advertised URL of the live daemon, or a CLI error."""
    from repro.service.daemon import daemon_alive, read_daemon_info

    info = read_daemon_info(state_dir)
    if not daemon_alive(info):
        print(
            f"xfdetector: error: no daemon serving {state_dir} "
            f"(start one with: xfdetector serve --state-dir "
            f"{state_dir})",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return info["url"]


def _api(url, path, payload=None):
    """One JSON round-trip with the daemon."""
    from urllib import error, request

    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    req = request.Request(url + path, data=data, headers=headers)
    try:
        with request.urlopen(req, timeout=30.0) as response:
            return json.loads(response.read() or b"{}")
    except error.HTTPError as exc:
        try:
            detail = json.loads(exc.read()).get("error", "")
        except (ValueError, OSError):
            detail = ""
        print(
            f"xfdetector: error: {path} -> {exc.code}"
            + (f": {detail}" if detail else ""),
            file=sys.stderr,
        )
        raise SystemExit(2)
    except OSError as exc:
        print(
            f"xfdetector: error: daemon unreachable at {url}: {exc}",
            file=sys.stderr,
        )
        raise SystemExit(2)


def _cmd_serve(args):
    from repro.service import FleetSettings, Reaper
    from repro.service.daemon import ServiceDaemon

    state_dir = _service_state_dir(args)
    daemon = ServiceDaemon(
        state_dir,
        settings=FleetSettings(
            workers=max(1, args.workers),
            shard_jobs=max(1, args.shard_jobs),
            batch_size=max(1, args.batch_size),
        ),
        reaper=Reaper(
            heartbeat_timeout=args.heartbeat_timeout,
            shard_timeout=args.shard_timeout,
            max_shard_retries=max(0, args.max_shard_retries),
        ),
        host=args.host,
        port=args.port,
        drain_timeout=args.drain_timeout,
    )
    print(
        f"-- serving {state_dir} at http://{daemon.host}:"
        f"{daemon.port} (pid {os.getpid()}); SIGTERM drains",
        file=sys.stderr,
    )
    unfinished = daemon.serve()
    if unfinished:
        print(
            f"-- drained with {unfinished} job(s) journaled for "
            f"resume on the next serve",
            file=sys.stderr,
        )
    return 0


def _cmd_submit(args):
    import time

    state_dir = _service_state_dir(args)
    url = _daemon_url(state_dir)
    spec = {
        "workload": args.workload,
        "faults": list(args.fault),
        "init_size": args.init,
        "test_size": args.test,
        "shards": args.shards,
        "strict_image": args.strict_image,
        "report_perf_bugs": not args.no_perf_bugs,
        "crash_state_variants": args.crash_states,
    }
    if args.plan_mode is not None:
        spec["plan_mode"] = args.plan_mode
    if args.max_failure_points is not None:
        spec["max_failure_points"] = args.max_failure_points
    if args.deadline is not None:
        spec["exec_deadline"] = args.deadline
    if args.max_retries is not None:
        spec["max_retries"] = args.max_retries
    if args.label is not None:
        spec["label"] = args.label
    job_id = _api(url, "/api/v1/jobs", spec)["job_id"]
    print(job_id)
    if not args.wait:
        return 0
    while True:
        record = _api(url, f"/api/v1/jobs/{job_id}")
        if record["finished"]:
            break
        time.sleep(0.5)
    if record["state"] in ("FAILED", "CANCELLED"):
        print(
            f"xfdetector: job {job_id} {record['state']}: "
            f"{record.get('detail')}",
            file=sys.stderr,
        )
        return 3
    from repro.service import JobStore

    store = JobStore(state_dir)
    with open(store.report_path(job_id, "text")) as handle:
        report_text = handle.read()
    print(report_text, end="")
    if record["state"] == "DEGRADED":
        print(f"-- job {job_id} DEGRADED: {record.get('detail')}",
              file=sys.stderr)
    with open(store.report_path(job_id, "json")) as handle:
        bugs = json.load(handle).get("bugs", [])
    return 1 if bugs else 0


def _format_job_line(summary):
    shards = summary.get("shards") or []
    done = sum(1 for s in shards if s["status"] == "done")
    return (
        f"{summary['job_id']:<42} {summary['state']:<9} "
        f"shards {done}/{len(shards)}"
        + (f"  [{summary['detail']}]" if summary.get("detail")
           else "")
    )


def _cmd_status(args):
    from repro.service import JobStore
    from repro.service.api import _job_summary
    from repro.service.daemon import daemon_alive, read_daemon_info

    state_dir = _service_state_dir(args)
    store = JobStore(state_dir)
    if args.job_id:
        try:
            summary = _job_summary(store.load(args.job_id))
        except (OSError, ValueError):
            print(
                f"xfdetector: error: no such job {args.job_id!r} "
                f"in {state_dir}",
                file=sys.stderr,
            )
            raise SystemExit(2)
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    summaries = []
    for job_id in store.list_jobs():
        try:
            summaries.append(_job_summary(store.load(job_id)))
        except (OSError, ValueError):
            continue
    if args.json:
        info = read_daemon_info(state_dir)
        print(json.dumps({
            "daemon": info,
            "daemon_alive": daemon_alive(info),
            "jobs": summaries,
        }, indent=2, sort_keys=True))
        return 0
    info = read_daemon_info(state_dir)
    if daemon_alive(info):
        print(f"daemon: serving at {info['url']} (pid {info['pid']})")
    else:
        print("daemon: not running")
    if not summaries:
        print("no jobs")
        return 0
    for summary in summaries:
        print(_format_job_line(summary))
    return 0


def _cmd_cancel(args):
    state_dir = _service_state_dir(args)
    url = _daemon_url(state_dir)
    result = _api(url, f"/api/v1/jobs/{args.job_id}/cancel", {})
    print(f"{args.job_id}: {result['state']}")
    return 0


def _cmd_doctor(args):
    from repro.service.doctor import clean_findings, diagnose

    state_dir = args.state_dir or os.environ.get("XFD_SERVICE_DIR")
    findings = diagnose(state_dir)
    if args.clean:
        removed, findings = clean_findings(findings)
        for finding in removed:
            print(f"removed {finding['kind']}: {finding['path']}")
    if args.json:
        print(json.dumps({"findings": findings}, indent=2,
                         sort_keys=True))
    else:
        if not findings:
            print("clean: nothing to report")
            return 0
        for finding in findings:
            note = finding.get("note") or finding.get("state") or ""
            print(
                f"{finding['kind']:<18} "
                f"{finding.get('path', finding.get('job', '?'))}"
                + (f"  ({note})" if note else "")
            )
    # Non-zero only when something actionable remains, so cron can
    # alert on it; informational findings keep exit 0.
    actionable = [
        f for f in findings
        if f["kind"] in ("shm_segment", "stale_daemon", "job_litter")
    ]
    return 1 if actionable else 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "lint": _cmd_lint,
        "profile": _cmd_profile,
        "report": _cmd_report,
        "list-workloads": _cmd_list_workloads,
        "list-faults": _cmd_list_faults,
        "new-bugs": _cmd_new_bugs,
        "suite": _cmd_suite,
        "trace": _cmd_trace,
        "inspect": _cmd_inspect,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "cancel": _cmd_cancel,
        "doctor": _cmd_doctor,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Downstream consumer (head, a flamegraph pipeline) closed
        # the pipe; detach stdout so the interpreter's shutdown flush
        # does not traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
