"""bench_layers: what an ``xfdetector run`` costs, end to end and per layer.

Every sample is one fresh ``python -m repro.cli run ... --json --quiet``
process, timed from spawn to exit; CPU and peak RSS come from
``os.wait4``, so they include the warm pool's reaped workers.  Each
verdict is checked (exit status 1, the seeded fault's bug class
reported, no degraded report, the ``bugs`` digest equal across samples
of one input and to the value pinned in ``expected.json``).

A separate traced pass runs the same argv through
:mod:`benchmarks.layers.traced`, which times each layer's entry point
from outside the program, and turns the spans into a per-layer
self-time table with an Amdahl share.

Two ways to run it (see README.md):

* ``python -m benchmarks.layers [--seed N] [--quick]`` runs all four
  workloads round-robin, then the traced pass, prints every metric and
  writes ``layers.json`` and ``spans.ndjson`` to ``--out``.
* ``python -m benchmarks.layers --workload W --seed N --seconds S
  --trace 0|1`` runs one pass on one workload for ``S`` seconds and
  prints, as its last line, one JSON object with ``correct``,
  ``attempted``, ``failed`` and the pass's metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from benchmarks.layers.traced import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: Scratch space for journals, stderr captures and span files: inside
#: the checkout, one directory per benchmark process, removed at exit.
WORK = HERE / ".work" / str(os.getpid())
EXPECTED = HERE / "expected.json"
DEFAULT_OUT = HERE / "results" / "latest"
SHM = Path("/dev/shm")

#: ``--init`` sizes are drawn from this inclusive range.
INIT_RANGE = (4, 16)
#: A process still running after this many seconds is killed.
SAMPLE_TIMEOUT = 60.0
#: Iterations of the reference loop, and its nominal duration: the
#: loop's typical time on the 2-core machine the bounds were set on.
REFERENCE_ITERATIONS = 400_000
REFERENCE_S = 0.06
#: Traced pass self-check: traced wall over untraced, minus 1.
OVERHEAD_LIMIT = 0.10
#: Self-check: benchmark-timed recovery vs the program's own profile.
PROFILE_AGREEMENT = 0.05
#: Jobs of the pool workload (``exec.pool_efficiency``'s denominator).
POOL_JOBS = 2

#: End-to-end metrics the result line carries as ``correct`` and
#: ``failed`` instead (one is always 1.0 and the other 0 on a pass).
ACCOUNTING = ("verdict_ok", "failed_share")

#: ``Workload.FAULTS`` class letters -> ``--json`` bug ``kind`` values.
BUG_CLASSES = {
    "R": "cross-failure race",
    "S": "cross-failure semantic bug",
    "P": "performance bug",
}


@dataclass(frozen=True)
class Size:
    """How much one run of the benchmark measures."""

    inputs: int  # distinct --init sizes per workload
    samples: int  # untraced samples per workload (round-robin)
    setup_spawns: int  # list-faults spawns timed for setup_s
    quick: bool


FULL = Size(inputs=4, samples=16, setup_spawns=8, quick=False)
QUICK = Size(inputs=2, samples=2, setup_spawns=2, quick=True)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: an ``xfdetector run`` argv template."""

    name: str
    program: str
    test: int
    quick_test: int
    fault: str
    options: tuple
    #: Layers whose entry point must record calls in a traced sample.
    layers: tuple
    why: str
    journal: bool = False

    def argv(self, init, quick, journal=None):
        argv = [
            "run", self.program,
            "--init", str(init),
            "--test", str(self.quick_test if quick else self.test),
            *self.options,
            "--fault", self.fault,
        ]
        if journal is not None:
            argv += ["--journal", journal]
        return argv + ["--json", "--quiet"]


_PARENT_LAYERS = (
    "cli.main", "frontend.run", "workloads.setup",
    "workloads.pre_failure", "pm.snapshot.capture", "dedup.classify",
    "backend.analyze", "replay.lower", "shadow.checkpoint",
    "report.render",
)
#: Layers that run in the CLI process only when no pool is used.
_SERIAL_LAYERS = (
    "workloads.recovery", "dedup.image_restore", "shadow.fork",
    "replay.dispatch",
)

WORKLOADS = (
    Workload(
        name="tx-recovery",
        program="hashmap_tx", test=80, quick_test=8,
        fault="skip_add_count", options=(),
        layers=_PARENT_LAYERS + _SERIAL_LAYERS,
        why="exhaustive serial undo-log map: post-failure recovery "
            "and replay dispatch dominate; no pool, plans or journal",
    ),
    Workload(
        name="tree-plans",
        program="btree", test=100, quick_test=10,
        fault="skip_add_leaf", options=("--plan-mode", "hybrid"),
        layers=_PARENT_LAYERS + _SERIAL_LAYERS
        + ("analysis.mech", "analysis.plans"),
        why="the only workload with mechanism inference and crash "
            "plans; finding-heavy, so bug splicing and rendering show",
    ),
    Workload(
        name="kv-crash-states",
        program="redis", test=30, quick_test=3,
        fault="skip_add_value_set", options=("--crash-states", "4"),
        layers=_PARENT_LAYERS + _SERIAL_LAYERS,
        why="5 post runs per snapshot: crash-image restore and trace "
            "lowering are hot; largest post trace, so peak RSS",
    ),
    Workload(
        name="atomic-pool",
        program="hashmap_atomic", test=160, quick_test=16,
        fault="swapped_dirty", options=("--jobs", str(POOL_JOBS)),
        layers=_PARENT_LAYERS + (
            "exec.prewarm", "exec.shm_publish", "exec.run_phase",
            "journal.begin", "journal.record",
        ),
        why="the only workload through the warm fork pool, shm "
            "publish, batched dispatch and the run journal",
        journal=True,
    ),
)
WORKLOADS_BY_NAME = {workload.name: workload for workload in WORKLOADS}


def draw_inputs(workload, seed, count):
    """``count`` (even) ``--init`` sizes for one workload, from the seed.

    Half are drawn one per equal-width stratum of the lower half of
    :data:`INIT_RANGE`; the other half mirrors them (``v`` -> ``low +
    high - v``).  Detection time grows with the initial image, so every
    seed gets the same mean size and runs of different seeds compare
    like with like, while the keys under test still move with the seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    low, high = INIT_RANGE
    half = count // 2
    width = (high - low + 1) // 2
    edges = [low + width * k // half for k in range(half + 1)]
    lower = [
        rng.randint(edges[k], edges[k + 1] - 1) for k in range(half)
    ]
    return lower + [low + high - size for size in reversed(lower)]


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------


def child_env():
    """The environment of every spawned process.

    ``XFD_*`` overrides are dropped so the argv alone decides what
    runs; temporary files land in the scratch directory.
    """
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("XFD_")
    }
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK)
    return env


@dataclass
class Spawn:
    """One finished child process."""

    stdout: bytes
    status: int
    wall: float
    cpu: float
    rss_mb: float


def spawn(module_argv):
    """Run ``python -m <module_argv>`` from the checkout root and reap
    it with ``os.wait4``; stderr goes to the scratch directory."""
    with tempfile.TemporaryFile(dir=WORK) as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", *module_argv],
            cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, stderr=stderr,
        )
        killer = threading.Timer(SAMPLE_TIMEOUT, proc.kill)
        killer.start()
        try:
            stdout = proc.stdout.read()
            _pid, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        if proc.returncode not in (0, 1):
            stderr.seek(0)
            tail = stderr.read()[-2000:].decode(errors="replace")
            print(
                f"-- {' '.join(module_argv[:3])} exited "
                f"{proc.returncode}:\n{tail}",
                file=sys.stderr,
            )
    return Spawn(
        stdout, proc.returncode, wall,
        usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
    )


def reference_loop():
    """Seconds one fixed pure-Python loop (int math, dict traffic)
    takes right now."""
    started = time.perf_counter()
    table = {}
    for i in range(REFERENCE_ITERATIONS):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - started


def speed_scale(samples):
    """The factor that turns this run's timings into speed-adjusted
    seconds: ``REFERENCE_S`` over the first quartile of the
    reference-loop times measured after each sample.

    The machine is shared: the same input's wall and CPU time drift by
    up to 40% over minutes as neighbours load it, and the interpreter
    loop slows down with them.  Scaled timings read in seconds of a
    machine running the loop in ``REFERENCE_S``, so drift between runs
    cancels.  The loop is short, so bursts of interference hit some
    loops hard and miss others; the lower quartile tracks the
    machine's sustained speed without them.  Within a run, medians
    absorb the bursts that hit samples.
    """
    loops = [s.reference for s in samples]
    low = statistics.quantiles(loops, n=4)[0] if len(loops) > 1 else loops[0]
    return REFERENCE_S / low


def shm_segments():
    """Names of the shared-memory segments the pool can leave behind."""
    if not SHM.is_dir():
        return set()
    return {path.name for path in SHM.glob("psm_*")}


def list_faults(workload):
    """Spawn ``list-faults`` once: its wall time (a cold CLI start) and
    the bug class the hand-written ``FAULTS`` table gives the seeded
    fault."""
    result = spawn(["repro.cli", "list-faults", workload.program])
    kind = None
    for line in result.stdout.decode().splitlines():
        match = re.match(r"\[(\w)\] (\S+)", line)
        if match and match.group(2) == workload.fault:
            kind = BUG_CLASSES.get(match.group(1))
    if result.status != 0 or kind is None:
        raise SystemExit(
            f"bench_layers: cannot read the class of fault "
            f"{workload.fault!r} from list-faults {workload.program}"
        )
    return result.wall, kind


# ----------------------------------------------------------------------
# Samples
# ----------------------------------------------------------------------


@dataclass
class Sample:
    """One ``xfdetector run`` process and what it reported."""

    id: str
    workload: str
    init: int
    traced: bool
    wall: float
    cpu: float
    rss_mb: float
    status: int
    report: dict | None
    #: ``psm_*`` segments present after the sample and not before.
    leaked: int
    spans: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    #: Seconds :func:`reference_loop` took right after this sample.
    reference: float = 0.0

    @property
    def digest(self):
        if self.report is None:
            return None
        bugs = json.dumps(self.report["bugs"], sort_keys=True)
        return hashlib.sha256(bugs.encode()).hexdigest()

    @property
    def stats(self):
        return self.report["stats"] if self.report else {}

    def summary(self):
        summary = {
            "id": self.id, "workload": self.workload,
            "init": self.init, "traced": self.traced,
            "wall_s": self.wall, "cpu_s": self.cpu,
            "rss_mb": self.rss_mb, "reference_s": self.reference,
            "status": self.status,
            "failure_points": self.stats.get("failure_points"),
            "digest": self.digest, "leaked": self.leaked,
            "problems": self.problems,
        }
        if self.spans:
            # [calls, self seconds, total seconds] of each timed layer.
            summary["layers"] = {
                layer: row
                for layer, row in layer_rollup(self.spans).items()
                if row[0]
            }
        return summary


def run_sample(workload, init, size, traced, sample_id):
    """One fresh CLI process (through the launcher when ``traced``)."""
    before = shm_segments()
    scratch = Path(tempfile.mkdtemp(dir=WORK))
    try:
        journal = (
            str(scratch / "j.ndjson") if workload.journal else None
        )
        argv = workload.argv(init, size.quick, journal)
        spans_path = scratch / "spans.ndjson"
        if traced:
            module_argv = [
                "benchmarks.layers.traced", str(spans_path), sample_id,
                "--", *argv, "--profile",
            ]
        else:
            module_argv = ["repro.cli", *argv]
        result = spawn(module_argv)
        spans = []
        if traced and spans_path.exists():
            with open(spans_path) as handle:
                spans = [json.loads(line) for line in handle]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    leaked = len(shm_segments() - before)
    try:
        report = json.loads(result.stdout)
    except ValueError:
        report = None
    return Sample(
        sample_id, workload.name, init, traced, result.wall, result.cpu,
        result.rss_mb, result.status, report, leaked, spans,
    )


def run_rounds(size, make_round, rounds, seconds=None, min_rounds=1):
    """Run ``make_round(i)``'s ``(workload, init, traced)`` jobs for
    i = 0, 1, ... until ``rounds`` rounds ran or, with ``seconds``, the
    time is up (never fewer than ``min_rounds``).  One process at a
    time: a closed loop from this single driver."""
    samples = []
    started = time.perf_counter()
    index = 0
    while True:
        for workload, init, traced in make_round(index):
            kind = "t" if traced else "u"
            sample_id = f"{workload.name}/{kind}{len(samples)}"
            sample = run_sample(workload, init, size, traced, sample_id)
            sample.reference = reference_loop()
            samples.append(sample)
            print(
                f"   {sample_id:24s} init={init:<3d} "
                f"wall={sample.wall:.3f}s status={sample.status}",
                file=sys.stderr, flush=True,
            )
        index += 1
        if index < min_rounds:
            continue
        if seconds is not None:
            if time.perf_counter() - started >= seconds:
                break
        elif index >= rounds:
            break
    return samples


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------


def check_verdicts(samples, kinds, pinned):
    """Attach verdict problems to each sample.

    ``kinds`` maps workload -> the seeded fault's bug kind; ``pinned``
    maps workload -> {init: digest} (None to skip the pin check).
    """
    digests = defaultdict(set)
    for sample in samples:
        if sample.report is not None:
            digests[(sample.workload, sample.init)].add(sample.digest)
    for sample in samples:
        problems = sample.problems
        if sample.status != 1:
            problems.append(f"exit status {sample.status}, expected 1")
        if sample.report is None:
            problems.append("no --json report on stdout")
            continue
        if sample.report["degraded"]:
            problems.append("report is degraded")
        kind = kinds[sample.workload]
        if kind not in {bug["kind"] for bug in sample.report["bugs"]}:
            problems.append(f"seeded fault's {kind} not reported")
        if len(digests[(sample.workload, sample.init)]) > 1:
            problems.append("bugs differ between samples of one input")
        if pinned is not None:
            expected = pinned.get(sample.workload, {}).get(
                str(sample.init)
            )
            if expected is None:
                problems.append("no digest pinned for this input")
            elif sample.digest != expected:
                problems.append("bugs differ from expected.json")


def tally(samples):
    """``(attempted, failed)`` failure points over these samples.

    Failed points are quarantined incidents, plus one per leaked
    shared-memory segment; a sample with no report counts as one
    attempted and failed point.
    """
    attempted = failed = 0
    for sample in samples:
        failed += sample.leaked
        if sample.report is None:
            attempted += 1
            failed += 1
            continue
        attempted += sample.stats["failure_points_executed"]
        failed += sum(
            1 for incident in sample.report["incidents"]
            if incident["quarantined"]
        )
    return attempted, failed


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def metric(value, unit, n):
    return {"value": value, "unit": unit, "n": n}


def end_to_end(samples, setup_walls, scale):
    """The seven end-to-end metrics of one workload's untraced samples;
    timings are multiplied by ``scale`` (see :func:`speed_scale`)."""
    n = len(samples)
    attempted, failed = tally(samples)
    ok = sum(1 for sample in samples if not sample.problems)
    return {
        "detect_wall_s": metric(
            scale * statistics.median(s.wall for s in samples), "s", n
        ),
        "detect_cpu_s": metric(
            scale * statistics.median(s.cpu for s in samples), "s", n
        ),
        "fp_per_s": metric(
            statistics.median(
                s.stats.get("failure_points", 0) / (scale * s.wall)
                for s in samples
            ),
            "1/s", n,
        ),
        "peak_rss_mb": metric(max(s.rss_mb for s in samples), "MB", n),
        "setup_s": metric(
            scale * statistics.median(setup_walls), "s",
            len(setup_walls),
        ),
        "verdict_ok": metric(ok / n, "ratio", n),
        "failed_share": metric(failed / max(attempted, 1), "ratio", n),
    }


def layer_rollup(spans):
    """``{layer: [calls, self seconds, total seconds]}`` of one traced
    sample; self time is a span's duration minus its child spans'."""
    covered = defaultdict(float)
    for span in spans:
        covered[span["parent"]] += span["end"] - span["start"]
    rollup = {layer: [0, 0.0, 0.0] for layer in LAYERS}
    for span in spans:
        duration = span["end"] - span["start"]
        row = rollup[span["name"]]
        row[0] += 1
        row[1] += duration - covered[span["id"]]
        row[2] += duration
    return rollup


#: Spans of the program's own ``--profile`` tree reported per sample;
#: on the pool workload they are the only view of worker-side work.
PROFILE_SPANS = (
    "post_run", "materialize_image", "recovery", "post_replay",
    "replay_events",
)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def sample_layers(sample):
    """Per-layer metric values of one traced sample, plus the
    benchmark-vs-profile recovery gap."""
    rollup = layer_rollup(sample.spans)
    root = rollup["cli.main"][2]
    values = {}
    for layer in LAYERS:
        calls, own, _total = rollup[layer]
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = own
        values[f"{layer}.share"] = _ratio(own, root)

    stats = sample.stats
    telemetry = sample.report.get("telemetry", {})
    counters = telemetry.get("metrics", {})
    profile = defaultdict(float)
    busy = 0.0
    for span in telemetry.get("spans", ()):
        profile[span["name"]] += span["duration_seconds"]
        if span["name"] in ("post_run", "post_replay") and span.get(
            "worker", "main"
        ) != "main":
            busy += span["duration_seconds"]
    for name in PROFILE_SPANS:
        values[f"profile.{name}_s"] = profile[name]

    pre_events = stats["pre_trace_events"]
    post_events = stats["post_trace_events"]
    executed = stats["failure_points_executed"]
    stage_self = (
        rollup["workloads.setup"][1] + rollup["workloads.pre_failure"][1]
    )
    queue_wait = counters.get("exec.queue_wait_seconds", {})
    values.update({
        "pm.pre_events": pre_events,
        "workloads.pre_failure.ns_per_event":
            1e9 * _ratio(stage_self, pre_events),
        "pm.snapshot.used_ratio":
            _ratio(executed, rollup["pm.snapshot.capture"][0]),
        "analysis.executed_ratio":
            _ratio(executed, stats["failure_points"]),
        "dedup.post_hit_ratio": _ratio(
            stats["post_runs_deduped"], counters.get("post_runs", 0)
        ),
        "dedup.replay_hit_ratio": _ratio(
            stats["replays_deduped"], stats["post_runs_analyzed"]
        ),
        "pm.post_events": post_events,
        "workloads.recovery.ns_per_event":
            1e9 * _ratio(profile["recovery"], post_events),
        "replay.dispatch.ns_per_event":
            1e9 * _ratio(profile["replay_events"], post_events),
        "exec.worker_busy_s": busy,
        "exec.pool_efficiency":
            _ratio(busy, POOL_JOBS * rollup["exec.run_phase"][2]),
        "exec.queue_wait_s": queue_wait.get("total", 0.0),
        "report.bug_occurrences": counters.get("bugs_reported_total", 0),
        "report.unique_bugs": len(sample.report["bugs"]),
    })
    gap = _ratio(
        abs(rollup["workloads.recovery"][2] - profile["recovery"]),
        profile["recovery"],
    )
    return values, gap


def per_layer_units():
    """``{per-layer metric: unit}`` in table order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    units.update({
        "pm.pre_events": "count",
        "workloads.pre_failure.ns_per_event": "ns",
        "pm.snapshot.used_ratio": "ratio",
        "analysis.executed_ratio": "ratio",
        "dedup.post_hit_ratio": "ratio",
        "dedup.replay_hit_ratio": "ratio",
        "pm.post_events": "count",
        "workloads.recovery.ns_per_event": "ns",
        "replay.dispatch.ns_per_event": "ns",
        "exec.worker_busy_s": "s",
        "exec.pool_efficiency": "ratio",
        "exec.queue_wait_s": "s",
        "report.bug_occurrences": "count",
        "report.unique_bugs": "count",
    })
    for name in PROFILE_SPANS:
        units[f"profile.{name}_s"] = "s"
    units["workloads.recovery.profile_gap"] = "ratio"
    units["trace_overhead"] = "ratio"
    return units


def per_layer(workload, traced, untraced, size):
    """Per-layer metrics (medians over traced samples) and the traced
    pass's self-check problems for one workload."""
    problems = []
    rows = [sample_layers(s) for s in traced if s.report is not None]
    if not rows:
        return {}, ["no traced sample produced a report"]
    n = len(rows)
    units = per_layer_units()
    values = {
        name: statistics.median(row[0][name] for row in rows)
        for name in rows[0][0]
    }
    for layer in workload.layers:
        if any(row[0][f"{layer}.calls"] == 0 for row in rows):
            problems.append(
                f"layer {layer} recorded no calls: its entry point "
                f"moved; update benchmarks/layers/traced.py"
            )
    gap = 0.0
    if "workloads.recovery" in workload.layers:
        gap = statistics.median(row[1] for row in rows)
        if gap > PROFILE_AGREEMENT:
            problems.append(
                f"workloads.recovery total and the profile's recovery "
                f"span differ by {gap:.1%} (> {PROFILE_AGREEMENT:.0%})"
            )
    values["workloads.recovery.profile_gap"] = gap
    # Each traced wall against the untraced median of the same input,
    # so the input mix cancels out of the overhead.
    by_init = defaultdict(list)
    for sample in untraced:
        by_init[sample.init].append(sample.wall)
    ratios = [
        s.wall / statistics.median(by_init[s.init])
        for s in traced if by_init[s.init]
    ]
    values["trace_overhead"] = (
        statistics.median(ratios) - 1.0 if ratios else 0.0
    )
    # One pair's ratio swings by +-20% on a busy machine, so the check
    # fails only when every traced sample ran more than the limit over
    # its input's untraced median: noise alone does not do that.
    if not size.quick and ratios and min(ratios) - 1.0 > OVERHEAD_LIMIT:
        problems.append(
            f"every traced sample ran over {OVERHEAD_LIMIT:.0%} slower "
            f"(trace_overhead {values['trace_overhead']:.1%})"
        )
    return (
        {name: metric(values[name], units[name], n) for name in units},
        problems,
    )


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_tables(results):
    """Every metric by name, with its unit and sample count."""
    names = list(results["workloads"])
    print(
        f"== end-to-end (untraced samples; timings x{results['scale']:.4f}"
        f": reference loop {results['reference_s']:.4f}s, "
        f"nominal {REFERENCE_S}s) =="
    )
    for name in names:
        for key, m in results["end_to_end"].get(name, {}).items():
            print(
                f"{name:16s} {key:16s} {_fmt(m['value']):>12s} "
                f"{m['unit']:6s} n={m['n']}"
            )
    layers = {
        name: results["per_layer"][name]
        for name in names if results["per_layer"].get(name)
    }
    if layers:
        print("== per-layer (medians over traced samples) ==")
        header = "".join(f" {name:>16s}" for name in layers)
        print(f"{'metric':40s} {'unit':6s}{header}")
        first = next(iter(layers.values()))
        counts = "".join(
            f" {'n=%d' % next(iter(m.values()))['n']:>16s}"
            for m in layers.values()
        )
        print(f"{'':40s} {'':6s}{counts}")
        for key, m in first.items():
            cells = "".join(
                f" {_fmt(layers[name][key]['value']):>16s}"
                for name in layers
            )
            print(f"{key:40s} {m['unit']:6s}{cells}")
    for name in names:
        for problem in results["checks"].get(name, ()):
            print(f"CHECK FAILED {name}: {problem}")


def write_results(out, results, samples):
    out.mkdir(parents=True, exist_ok=True)
    results = dict(results, samples=[s.summary() for s in samples])
    with open(out / "layers.json", "w") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")
    with open(out / "spans.ndjson", "w") as handle:
        for sample in samples:
            for span in sample.spans:
                handle.write(json.dumps(span) + "\n")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def load_expected(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def write_expected(workloads, size, path):
    """Pin the ``bugs`` digest of every ``--init`` in range."""
    expected = load_expected(path)
    mode = "quick" if size.quick else "full"
    kinds = {w.name: list_faults(w)[1] for w in workloads}
    low, high = INIT_RANGE
    samples = run_rounds(
        size,
        lambda i: [(w, low + i, False) for w in workloads],
        rounds=high - low + 1,
    )
    check_verdicts(samples, kinds, None)
    bad = [s for s in samples if s.problems]
    for sample in bad:
        print(f"{sample.id}: {'; '.join(sample.problems)}")
    if bad:
        return 1
    section = expected.setdefault(mode, {})
    for sample in samples:
        section.setdefault(sample.workload, {})[str(sample.init)] = (
            sample.digest
        )
    with open(path, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"-- pinned {len(samples)} digests ({mode}) in {path}")
    return 0


def _parse(argv):
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.layers",
        description="End-to-end and per-layer cost of xfdetector runs.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS_BY_NAME),
        help="workload to run (repeatable; default all four)",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="sample until this many seconds have passed instead of a "
             "fixed sample count",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="run only the untraced (0) or traced (1) pass of one "
             "workload and print its result as one JSON line",
    )
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, 2 samples: a smoke test")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for layers.json and spans.ndjson")
    parser.add_argument("--expected", type=Path, default=EXPECTED,
                        help="pinned verdict digests")
    parser.add_argument("--write-expected", action="store_true",
                        help="re-pin the digest of every --init size")
    args = parser.parse_args(argv)
    if args.trace is not None and len(args.workload or ()) != 1:
        parser.error("--trace needs exactly one --workload")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(args, workloads, size):
    """Run the selected passes; returns ``(results, samples)``."""
    pinned = load_expected(args.expected).get(
        "quick" if size.quick else "full", {}
    )
    inputs = {
        w.name: draw_inputs(w.name, args.seed, size.inputs)
        for w in workloads
    }
    # Untimed: users run byte-compiled code, so compile it up front.
    spawn(["compileall", "-q", str(SRC), str(HERE)])
    kinds = {}
    setup = defaultdict(list)
    for _ in range(size.setup_spawns if args.trace != 1 else 1):
        for w in workloads:
            wall, kinds[w.name] = list_faults(w)
            setup[w.name].append(wall)

    untraced, traced = [], []
    if args.trace != 1:
        untraced = run_rounds(
            size,
            lambda i: [
                (w, inputs[w.name][i % size.inputs], False)
                for w in workloads
            ],
            rounds=size.samples, seconds=args.seconds,
            min_rounds=size.inputs,
        )
    if args.trace is None:
        traced = run_rounds(
            size,
            lambda i: [(w, inputs[w.name][i], True) for w in workloads],
            rounds=size.inputs,
        )
    elif args.trace == 1:
        # Untraced/traced pairs on one input, alternating which runs
        # first, so the overhead compares neighbours in time.
        def pair(i):
            w = workloads[0]
            init = inputs[w.name][i % size.inputs]
            jobs = [(w, init, False), (w, init, True)]
            return jobs if i % 2 == 0 else jobs[::-1]

        both = run_rounds(
            size, pair, rounds=size.inputs, seconds=args.seconds,
            min_rounds=size.inputs,
        )
        untraced = [s for s in both if not s.traced]
        traced = [s for s in both if s.traced]

    samples = untraced + traced
    check_verdicts(samples, kinds, pinned)
    scale = speed_scale(samples)
    results = {
        "seed": args.seed, "quick": size.quick,
        "reference_s": REFERENCE_S / scale,
        "scale": scale,
        "workloads": {
            w.name: {
                "argv": w.argv(
                    "<init>", size.quick,
                    "<tmp>/j.ndjson" if w.journal else None,
                ),
                "inputs": inputs[w.name],
                "why": w.why,
            }
            for w in workloads
        },
        "end_to_end": {}, "per_layer": {}, "checks": {},
    }
    for w in workloads:
        mine = [s for s in untraced if s.workload == w.name]
        mine_traced = [s for s in traced if s.workload == w.name]
        problems = [
            f"{s.id}: {problem}"
            for s in mine + mine_traced for problem in s.problems
        ]
        if mine and args.trace != 1:
            results["end_to_end"][w.name] = end_to_end(
                mine, setup[w.name], scale
            )
        if mine_traced:
            layers, layer_problems = per_layer(
                w, mine_traced, mine, size
            )
            results["per_layer"][w.name] = layers
            problems += layer_problems
        results["checks"][w.name] = problems
    return results, samples


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(
            f"bench_layers: no program to measure: {SRC / 'repro'} is "
            f"missing (run from a full checkout)",
            file=sys.stderr,
        )
        return 2
    size = QUICK if args.quick else FULL
    names = args.workload or [w.name for w in WORKLOADS]
    workloads = [WORKLOADS_BY_NAME[name] for name in names]
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_expected:
            return write_expected(workloads, size, args.expected)
        results, samples = measure(args, workloads, size)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass  # another benchmark process still works there
    write_results(args.out, results, samples)
    print_tables(results)
    correct = not any(results["checks"].values())
    attempted, failed = tally(samples)
    if args.trace is None:
        return 0 if correct and not failed else 1
    section = results["end_to_end" if args.trace == 0 else "per_layer"]
    metrics = {
        key: {"value": m["value"], "unit": m["unit"]}
        for key, m in section.get(names[0], {}).items()
        if key not in ACCOUNTING
    }
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0
