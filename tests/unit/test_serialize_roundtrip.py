"""Property-style round-trip tests for ``repro.trace.serialize``.

Every event kind in ``repro.trace.events`` — including the RoI /
skip-detection / commit-variable markers — must survive
``parse_trace(format_trace(events))`` unchanged, for randomized
addresses, sizes, thread ids, infos (with spaces), and source
locations.
"""

import random
from pathlib import Path

import pytest

from repro._location import UNKNOWN_LOCATION, SourceLocation
from repro.trace.events import EventKind, TraceEvent
from repro.trace.serialize import (
    format_event,
    format_trace,
    parse_event,
    parse_trace,
)

_FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "trace_v1.txt"

#: Kind-typical info payloads, several containing spaces (the trailing
#: free-form field of the line format).
_INFOS = {
    EventKind.FLUSH: ["CLWB", "CLFLUSHOPT", "CLFLUSH"],
    EventKind.FENCE: ["SFENCE", "MFENCE", "drain"],
    EventKind.TX_BEGIN: ["1", "2"],
    EventKind.TX_ADD: ["1"],
    EventKind.TX_COMMIT: ["1"],
    EventKind.TX_ABORT: ["1"],
    EventKind.ALLOC: ["zeroed", "raw"],
    EventKind.LIB_BEGIN: ["pobj_alloc", "atomic word write"],
    EventKind.LIB_END: ["pobj_alloc", "atomic word write"],
    EventKind.COMMIT_VAR: ["valid flag", "count_dirty"],
    EventKind.COMMIT_RANGE: ["valid flag"],
    EventKind.FAILURE_POINT: ["0", "17"],
    EventKind.HINT_FAILURE_POINT: ["atomic word write", "SFENCE"],
}

_LOCATIONS = [
    UNKNOWN_LOCATION,
    SourceLocation("/repo/src/wl.py", 42, "insert"),
    SourceLocation("wl.py", 1, "Outer.method"),
    SourceLocation("/a b/odd path.py", 999,
                   "Cls.method.<locals>.inner"),
]


def _random_event(rng, seq, kind):
    sized = kind in (
        EventKind.STORE, EventKind.NT_STORE, EventKind.LOAD,
        EventKind.FLUSH, EventKind.TX_ADD, EventKind.ALLOC,
        EventKind.FREE, EventKind.COMMIT_RANGE,
    )
    infos = _INFOS.get(kind, [""])
    return TraceEvent(
        seq=seq,
        kind=kind,
        addr=rng.randrange(0, 1 << 48) if sized else 0,
        size=rng.choice([1, 8, 64, 4096]) if sized else 0,
        info=rng.choice(infos),
        ip=rng.choice(_LOCATIONS),
        tid=rng.randrange(0, 4),
    )


class TestEventRoundTrip:
    @pytest.mark.parametrize("kind", list(EventKind),
                             ids=lambda k: k.value)
    def test_every_kind_round_trips(self, kind):
        rng = random.Random(hash(kind.value) & 0xFFFF)
        for seq in range(25):
            event = _random_event(rng, seq, kind)
            assert parse_event(format_event(event)) == event

    def test_info_with_spaces_round_trips(self):
        event = TraceEvent(
            seq=3, kind=EventKind.COMMIT_VAR, addr=0, size=0,
            info="a name with   runs  of spaces",
            ip=SourceLocation("f.py", 7, "setup"), tid=0,
        )
        assert parse_event(format_event(event)) == event

    def test_empty_info_round_trips_as_dash(self):
        event = TraceEvent(seq=0, kind=EventKind.STORE, addr=0x1000,
                           size=8, info="",
                           ip=SourceLocation("f.py", 1, "f"))
        line = format_event(event)
        assert " - | " in line
        assert parse_event(line).info == ""

    def test_unknown_location_round_trips_identically(self):
        event = TraceEvent(seq=0, kind=EventKind.FENCE, info="SFENCE")
        parsed = parse_event(format_event(event))
        assert parsed.ip is UNKNOWN_LOCATION


class TestTraceRoundTrip:
    def test_mixed_trace_round_trips(self):
        rng = random.Random(20260806)
        events = [
            _random_event(rng, seq, rng.choice(list(EventKind)))
            for seq in range(400)
        ]
        assert parse_trace(format_trace(events)) == events

    def test_blank_lines_and_comments_are_skipped(self):
        rng = random.Random(7)
        events = [_random_event(rng, seq, EventKind.STORE)
                  for seq in range(3)]
        text = format_trace(events)
        noisy = "# header\n\n" + text.replace(
            "\n", "\n# interleaved comment\n\n", 1
        )
        assert parse_trace(noisy) == events

    def test_malformed_lines_raise(self):
        with pytest.raises(ValueError):
            parse_event("0 STORE 0x10 8 0 -")  # no location separator
        with pytest.raises(ValueError):
            parse_event("0 STORE 0x10 | f.py:1:f")  # missing fields


class TestV1FixtureCompat:
    def test_fixture_parses(self):
        events = parse_trace(_FIXTURE.read_text())
        assert len(events) == 13
        assert events[0].kind is EventKind.ROI_BEGIN
        assert events[0].ip is UNKNOWN_LOCATION
        assert events[3].kind is EventKind.STORE
        assert events[3].addr == 0x10000000
        assert events[8].info == "atomic word write"
        assert events[8].ip.filename == "/a b/odd path.py"
        assert events[8].ip.function == "Cls.method.<locals>.inner"
        assert events[11].info == "valid flag"
