"""Hierarchical wall-clock spans.

A :class:`Span` measures one region of the pipeline; nesting follows
the dynamic call structure (``with spans.span("backend"): ...``).  The
resulting tree is the run's wall-clock profile: frontend setup, the
pre-failure stage, the pre-failure replay, one ``post_run`` per
failure point (its recovery checked as it runs), and the backend.

Spans are deliberately always-on: a handful per failure point, each
costing two ``perf_counter()`` calls — the replacement for the
hand-rolled timing the detector used to carry.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Span:
    """One timed region, with attributes and child spans."""

    __slots__ = ("name", "attrs", "started", "ended", "children")

    def __init__(self, name, attrs=None):
        self.name = name
        self.attrs = attrs or {}
        self.started = 0.0
        self.ended = 0.0
        self.children = []

    @property
    def duration(self):
        """Wall-clock seconds (0.0 while the span is still open)."""
        return max(0.0, self.ended - self.started)

    @property
    def self_seconds(self):
        """Duration not covered by child spans."""
        return max(
            0.0,
            self.duration - sum(c.duration for c in self.children),
        )

    def walk(self, depth=0):
        """Yield ``(span, depth)`` in depth-first order."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def leaves(self):
        if not self.children:
            yield self
            return
        for child in self.children:
            yield from child.leaves()

    def __repr__(self):
        return (
            f"Span({self.name!r}, {self.duration:.6f}s, "
            f"{len(self.children)} children)"
        )


class SpanRecorder:
    """Collects a forest of spans via a context-manager stack."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.roots = []
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        span = Span(name, attrs)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        span.started = self._clock()
        try:
            yield span
        finally:
            span.ended = self._clock()
            self._stack.pop()

    def add_completed(self, name, seconds, **attrs):
        """Record an already-measured region as a closed span.

        Used for work that ran off-thread (executor tasks): the worker
        measures its own duration and the parent attaches the result
        under the currently open span.  The span is back-dated so its
        duration is ``seconds``; siblings recorded this way overlap in
        wall-clock, which is exactly what parallel execution looks like
        in a profile.
        """
        span = Span(name, attrs)
        span.ended = self._clock()
        span.started = span.ended - max(0.0, seconds)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        return span

    def graft(self, roots, worker=None):
        """Attach span trees recorded in another process.

        Executor workers record their own span trees against their own
        ``perf_counter`` origin; the coordinator grafts the shipped
        trees under its currently open span.  Timestamps are
        re-anchored so each tree *ends* at the coordinator's "now"
        (durations are preserved exactly — they are the measurement;
        absolute placement is only presentation).  ``worker`` tags each
        grafted root so the profile shows where the work ran.
        """
        roots = [root for root in roots if root is not None]
        if not roots:
            return []
        delta = self._clock() - max(root.ended for root in roots)
        for root in roots:
            _shift(root, delta)
            if worker is not None:
                root.attrs = dict(root.attrs)
                root.attrs.setdefault("worker", worker)
            if self._stack:
                self._stack[-1].children.append(root)
            else:
                self.roots.append(root)
        return roots

    # -- queries ----------------------------------------------------------

    def walk(self):
        for root in self.roots:
            yield from root.walk()

    def find(self, name):
        """Every recorded span with this name, depth-first."""
        return [span for span, _d in self.walk() if span.name == name]

    def first(self, name):
        for span, _depth in self.walk():
            if span.name == name:
                return span
        return None

    def total_seconds(self):
        return sum(root.duration for root in self.roots)

    def leaf_seconds(self):
        """Sum of leaf durations: how much wall-clock the profile's
        finest-grained measurements account for."""
        return sum(
            leaf.duration
            for root in self.roots
            for leaf in root.leaves()
        )

    def coverage(self):
        """Leaf-sum as a fraction of total (1.0 = fully accounted)."""
        total = self.total_seconds()
        return self.leaf_seconds() / total if total else 1.0

    # -- export ----------------------------------------------------------

    def format(self):
        """Indented tree with durations, self-times, and attributes."""
        lines = []
        for root in self.roots:
            for span, depth in root.walk():
                attrs = "".join(
                    f" {key}={value}"
                    for key, value in span.attrs.items()
                )
                own = ""
                if span.children:
                    own = f" (self {span.self_seconds:.6f}s)"
                lines.append(
                    f"{'  ' * depth}{span.name}{attrs}: "
                    f"{span.duration:.6f}s{own}"
                )
        return "\n".join(lines)

    def to_records(self):
        """Flattened spans with ``id``/``parent`` links for NDJSON."""
        next_id = [0]

        def emit(span, parent_id):
            next_id[0] += 1
            span_id = next_id[0]
            record = {
                "type": "span",
                "id": span_id,
                "parent": parent_id,
                "name": span.name,
                "duration_seconds": span.duration,
                "self_seconds": span.self_seconds,
            }
            record.update(span.attrs)
            yield record
            for child in span.children:
                yield from emit(child, span_id)

        for root in self.roots:
            yield from emit(root, 0)

    def folded(self):
        """Folded-stack lines (``a;b;c <microseconds>``).

        The classic flamegraph-tooling input format: one line per
        unique root-to-span path, the value being the path's aggregate
        *self* time in integer microseconds (so child time is never
        double-counted).  Feed the output straight to
        ``flamegraph.pl`` or speedscope.
        """
        totals = {}

        def fold(span, prefix):
            path = prefix + (span.name,)
            micros = int(round(span.self_seconds * 1e6))
            totals[path] = totals.get(path, 0) + micros
            for child in span.children:
                fold(child, path)

        for root in self.roots:
            fold(root, ())
        return [
            f"{';'.join(path)} {value}"
            for path, value in sorted(totals.items())
        ]

    def aggregate(self):
        """Per-name rollup: calls, total, self, max duration.

        Sorted by aggregate self time (descending) — the "where does
        the wall-clock actually go" view behind ``profile --top``.
        """
        rows = {}
        for span, _depth in self.walk():
            row = rows.setdefault(span.name, {
                "name": span.name, "count": 0,
                "total_seconds": 0.0, "self_seconds": 0.0,
                "max_seconds": 0.0,
            })
            row["count"] += 1
            row["total_seconds"] += span.duration
            row["self_seconds"] += span.self_seconds
            row["max_seconds"] = max(row["max_seconds"], span.duration)
        return sorted(
            rows.values(),
            key=lambda row: (-row["self_seconds"], row["name"]),
        )


def _shift(span, delta):
    span.started += delta
    span.ended += delta
    for child in span.children:
        _shift(child, delta)
