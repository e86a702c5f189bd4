"""The TTY progress renderer (stderr sink).

Renders a single self-overwriting status line from the live event
stream: current phase, a points progress bar, completion rate,
findings, incidents, and the dedup ratio.  Auto-enabled only when the
stream is a TTY (``--quiet`` forces it off, ``--progress`` forces it
on for pipelines that want the line in a log); a disabled renderer
costs one attribute check per event.

Rendering is throttled to ``min_interval`` except at phase boundaries
and heartbeats, so a fast post-failure phase does not spend its time
repainting the terminal.  The final ``run_finished`` render ends with
a newline and stays on screen.
"""

from __future__ import annotations

import sys
import time

#: Phases worth naming on the status line, in pipeline order.
_PHASE_LABELS = {
    "setup": "setup",
    "pre_failure": "pre-failure",
    "post_exec": "post-failure",
    "backend": "backend",
}

_BAR_WIDTH = 18
_LINE_WIDTH = 100


class ProgressRenderer:
    """Single-line live status on a terminal stream."""

    def __init__(self, stream=None, enabled=None, min_interval=0.1,
                 clock=time.monotonic):
        self.stream = stream if stream is not None else sys.stderr
        if enabled is None:
            isatty = getattr(self.stream, "isatty", None)
            enabled = bool(isatty and isatty())
        self.enabled = enabled
        self.min_interval = min_interval
        self._clock = clock
        self._last_render = 0.0
        self._last_points = 0
        self._last_points_ts = None
        self._rate = 0.0
        self._progress = None
        self._wrote = False
        self.heartbeats_rendered = 0
        self.renders = 0

    def attach(self, bus):
        self._progress = bus.progress

    # -- sink interface --------------------------------------------------

    def handle(self, event):
        if not self.enabled or self._progress is None:
            return
        kind = event.kind
        if kind == "heartbeat":
            self.heartbeats_rendered += 1
            self._render(event, force=True)
        elif kind == "run_finished":
            self._render(event, force=True, final=True)
        elif kind in ("phase_started", "phase_finished",
                      "run_started"):
            self._render(event, force=True)
        elif kind in ("point_completed", "point_injected",
                      "dedup_hit", "finding", "incident"):
            self._render(event)

    def close(self):
        if self._wrote:
            self.stream.write("\n")
            try:
                self.stream.flush()
            except Exception:
                pass
            self._wrote = False

    # -- rendering -------------------------------------------------------

    def _render(self, event, force=False, final=False):
        now = self._clock()
        if not force and now - self._last_render < self.min_interval:
            return
        self._last_render = now
        progress = self._progress
        self._update_rate(progress.points_done, now)
        line = self._format_line(progress, final)
        if final:
            self.stream.write("\r" + line.ljust(_LINE_WIDTH) + "\n")
            self._wrote = False
        else:
            self.stream.write("\r" + line.ljust(_LINE_WIDTH)[:_LINE_WIDTH])
            self._wrote = True
        try:
            self.stream.flush()
        except Exception:
            pass
        self.renders += 1

    def _update_rate(self, points_done, now):
        if self._last_points_ts is None:
            self._last_points_ts = now
            self._last_points = points_done
            return
        elapsed = now - self._last_points_ts
        if elapsed >= 0.5:
            delta = points_done - self._last_points
            self._rate = delta / elapsed
            self._last_points = points_done
            self._last_points_ts = now

    def _format_line(self, progress, final):
        name = progress.workload or "run"
        if final:
            phase = "done"
        else:
            phase = _PHASE_LABELS.get(
                progress.phase, progress.phase or "…"
            )
        total = progress.points_total
        done = progress.points_done
        if total:
            filled = min(
                _BAR_WIDTH, int(_BAR_WIDTH * done / total)
            )
            bar = "#" * filled + "." * (_BAR_WIDTH - filled)
            points = f"[{bar}] {done}/{total}"
        elif progress.points_injected:
            points = f"{progress.points_injected} points injected"
        else:
            points = "starting"
        bits = [f"{name} {phase}", points]
        if self._rate > 0 and not final:
            bits.append(f"{self._rate:.1f}/s")
        bits.append(f"{progress.findings} finding(s)")
        if progress.incidents:
            bits.append(f"{progress.incidents} incident(s)")
        if progress.dedup_hits:
            bits.append(f"dedup {100 * progress.dedup_ratio():.0f}%")
        return " · ".join(bits)
