"""Telemetry hub contracts: off by default, zero-cost disabled, bounded."""

from __future__ import annotations

import pytest

from repro.obs import TelemetryEvent, TelemetryHub
from repro.sim import Engine


def test_disabled_emit_is_a_noop():
    hub = TelemetryHub()
    assert not hub.enabled
    hub.emit(1.0, "gateway", "arrival", "fn", rid=1)
    assert len(hub) == 0
    assert hub.dropped == 0
    assert hub.events == []


def test_enabled_emit_records_event():
    hub = TelemetryHub(enabled=True)
    hub.emit(2.5, "scheduler", "up", "fn", pod="fn-0", node="node0")
    assert len(hub) == 1
    event = hub.events[0]
    assert event.time == 2.5
    assert event.source == "scheduler"
    assert event.kind == "up"
    assert event.function == "fn"
    assert event.payload["pod"] == "fn-0"


def test_overflow_counts_drops_instead_of_silently_discarding():
    hub = TelemetryHub(enabled=True, max_events=2)
    for i in range(5):
        hub.emit(float(i), "engine", "schedule", at=float(i))
    assert len(hub) == 2
    assert hub.dropped == 3
    hub.clear()
    assert len(hub) == 0
    assert hub.dropped == 0


def test_max_events_must_be_positive():
    with pytest.raises(ValueError):
        TelemetryHub(max_events=0)


def test_filter_by_source_kind_function():
    hub = TelemetryHub(enabled=True)
    hub.emit(0.0, "gateway", "arrival", "a", rid=1)
    hub.emit(1.0, "gateway", "park", "a", rid=1, reason="cold")
    hub.emit(2.0, "scheduler", "up", "b", pod="b-0")
    assert len(hub.filter(source="gateway")) == 2
    assert len(hub.filter(kind="park")) == 1
    assert len(hub.filter(function="b")) == 1
    assert hub.filter(source="gateway", function="b") == []


def test_event_to_dict_omits_empty_fields():
    bare = TelemetryEvent(1.0, "engine", "schedule", None, {})
    assert bare.to_dict() == {"time": 1.0, "source": "engine", "kind": "schedule"}
    full = TelemetryEvent(1.0, "gateway", "arrival", "fn", {"rid": 7})
    assert full.to_dict() == {
        "time": 1.0,
        "source": "gateway",
        "kind": "arrival",
        "function": "fn",
        "payload": {"rid": 7},
    }


# -- engine integration -------------------------------------------------------


def test_engine_hub_disabled_by_default_records_nothing():
    engine = Engine(seed=1)
    engine.schedule(1.0, lambda: None)
    engine.run()
    assert len(engine.hub) == 0
    assert engine.hub.dropped == 0
    assert not engine.trace


def test_engine_trace_records_timer_channel():
    engine = Engine(seed=1, trace=True)
    engine.schedule(1.0, lambda: None)
    engine.run()
    assert engine.trace
    assert len(engine.hub.filter(source="engine", kind="schedule")) >= 1


# -- the engine-timer channel on the hub --------------------------------------


def test_tracelog_counts_drops_at_cap():
    """The timer channel is bounded by the hub's own cap, drops counted."""
    hub = TelemetryHub(enabled=True, max_events=3)
    for i in range(10):
        hub.emit(float(i), "engine", "schedule", at=float(i))
    assert len(hub) == 3
    assert hub.dropped == 7
    assert len(hub.events) == 3


def test_tracelog_disabled_gates_engine_channel_only():
    engine = Engine(seed=1)
    engine.hub.enabled = True  # scenario telemetry on, timer channel off
    engine.schedule(1.0, lambda: None)
    engine.run()
    assert len(engine.hub) == 0  # timer channel stays quiet ...
    engine.hub.emit(0.0, "gateway", "arrival", "fn", rid=1)
    assert len(engine.hub) == 1  # ... while scenario telemetry still flows


def test_tracelog_shares_hub_with_engine():
    """Timer events land in the one hub every other subsystem emits to."""
    engine = Engine(seed=1, trace=True)
    assert engine.hub.enabled
    engine.schedule(0.5, lambda: None)
    (event,) = engine.hub.events
    assert (event.source, event.kind, event.payload["at"]) == ("engine", "schedule", 0.5)
