"""Trace serialization: the v1 text line format.

The original tool streams trace entries from the Pin frontend to the
backend through FIFOs; this reproduction keeps traces in memory, but
offers an on-disk format so traces can be dumped, diffed, and
re-analysed offline — the "trace-analysis prototype" workflow.

One event per line, space-separated, ``|`` separates the source
location which may itself contain spaces::

    <seq> <KIND> <addr-hex> <size> <tid> <info-or-dash> | \
        <file>:<line>:<function>
"""

from __future__ import annotations

from repro._location import UNKNOWN_LOCATION, SourceLocation
from repro.trace.events import EventKind, TraceEvent


def format_event(event):
    """Render one event as a trace line."""
    info = event.info if event.info else "-"
    ip = event.ip
    return (
        f"{event.seq} {event.kind.value} {event.addr:#x} {event.size} "
        f"{event.tid} {info} | {ip.filename}:{ip.lineno}:{ip.function}"
    )


def format_trace(events):
    """Render an iterable of events as trace text."""
    return "\n".join(format_event(event) for event in events) + "\n"


def parse_event(line):
    """Parse one trace line back into a :class:`TraceEvent`."""
    head, sep, tail = line.partition(" | ")
    if not sep:
        raise ValueError(f"malformed trace line (no location): {line!r}")
    # Split at most 5 times: the trailing info field may itself contain
    # spaces (commit-variable names, library region labels).
    fields = head.split(None, 5)
    if len(fields) != 6:
        raise ValueError(f"malformed trace line: {line!r}")
    seq_text, kind_text, addr_text, size_text, tid_text, info = fields
    filename, _, rest = tail.partition(":")
    lineno_text, _, function = rest.partition(":")
    ip = SourceLocation(filename, int(lineno_text), function)
    if ip == UNKNOWN_LOCATION:
        ip = UNKNOWN_LOCATION
    return TraceEvent(
        seq=int(seq_text),
        kind=EventKind(kind_text),
        addr=int(addr_text, 16),
        size=int(size_text),
        info="" if info == "-" else info,
        ip=ip,
        tid=int(tid_text),
    )


def parse_trace(text):
    """Parse trace text back into a list of events."""
    events = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        events.append(parse_event(line))
    return events

