"""Tracing framework — the reproduction's substitute for the Pin frontend.

Every PM operation performed through :class:`repro.pm.PersistentMemory`
produces a :class:`~repro.trace.events.TraceEvent` carrying the operation
kind, the target address range, and the source location of the workload
code that performed it.  Traces are recorded by
:class:`~repro.trace.recorder.TraceRecorder` and replayed by the detector
backend; they can also be serialized to text for offline analysis.
"""

from repro.trace.events import EventKind, TraceEvent
from repro.trace.recorder import TraceRecorder
from repro.trace.serialize import (
    format_event,
    format_trace,
    parse_event,
    parse_trace,
)

__all__ = [
    "EventKind",
    "TraceEvent",
    "TraceRecorder",
    "format_event",
    "format_trace",
    "parse_event",
    "parse_trace",
]
