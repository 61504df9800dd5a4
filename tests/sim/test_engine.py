"""Unit tests for the event-loop engine."""

from __future__ import annotations

import math

import pytest

from repro.sim import Engine, ScheduleInPastError, SimulationError


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_schedule_and_run_order():
    engine = Engine()
    order = []
    engine.schedule(2.0, order.append, "b")
    engine.schedule(1.0, order.append, "a")
    engine.schedule(3.0, order.append, "c")
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == 3.0


def test_same_time_events_run_in_schedule_order():
    engine = Engine()
    order = []
    for tag in range(10):
        engine.schedule(1.0, order.append, tag)
    engine.run()
    assert order == list(range(10))


def test_run_until_advances_clock_even_without_events():
    engine = Engine()
    engine.run(until=5.0)
    assert engine.now == 5.0


def test_run_until_does_not_execute_later_events():
    engine = Engine()
    fired = []
    engine.schedule(10.0, fired.append, "late")
    engine.run(until=5.0)
    assert fired == []
    assert engine.now == 5.0
    engine.run(until=15.0)
    assert fired == ["late"]


def test_schedule_in_past_raises():
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    engine.run()
    with pytest.raises(ScheduleInPastError):
        engine.schedule_at(0.5, lambda: None)


def test_negative_timeout_raises():
    engine = Engine()
    with pytest.raises(ScheduleInPastError):
        engine.timeout(-1.0)


def test_cancel_prevents_callback():
    engine = Engine()
    fired = []
    handle = engine.schedule(1.0, fired.append, "x")
    handle.cancel()
    engine.run()
    assert fired == []


def test_stop_halts_run():
    engine = Engine()
    fired = []
    engine.schedule(1.0, fired.append, 1)
    engine.schedule(2.0, engine.stop)
    engine.schedule(3.0, fired.append, 3)
    engine.run()
    assert fired == [1]
    assert engine.now == 2.0
    # Resuming picks the remaining event back up.
    engine.run()
    assert fired == [1, 3]


def test_nested_scheduling_from_callback():
    engine = Engine()
    seen = []

    def outer():
        seen.append(("outer", engine.now))
        engine.schedule(0.5, inner)

    def inner():
        seen.append(("inner", engine.now))

    engine.schedule(1.0, outer)
    engine.run()
    assert seen == [("outer", 1.0), ("inner", 1.5)]


def test_run_until_in_past_raises():
    engine = Engine()
    engine.schedule(2.0, lambda: None)
    engine.run()
    with pytest.raises(ScheduleInPastError):
        engine.run(until=1.0)


def test_pending_events_counts_uncancelled():
    engine = Engine()
    h1 = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    h1.cancel()
    assert engine.pending_events == 1


def test_pending_events_is_exact_through_pops_and_cancels():
    engine = Engine()
    handles = [engine.schedule(float(i), lambda: None) for i in range(10)]
    for h in handles[::2]:
        h.cancel()
    assert engine.pending_events == 5
    engine.run(until=4.0)  # pops t=1,3 (live) and drains t=0,2,4 (dead)
    assert engine.pending_events == 3
    engine.run()
    assert engine.pending_events == 0


def test_cancel_twice_does_not_double_count():
    engine = Engine()
    h = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    h.cancel()
    h.cancel()
    assert engine.pending_events == 1


def test_cancel_after_execution_is_a_noop():
    engine = Engine()
    h = engine.schedule(1.0, lambda: None)
    engine.run()
    h.cancel()  # must not corrupt the live-entry accounting
    engine.schedule(2.0, lambda: None)
    assert engine.pending_events == 1


def test_peek_returns_next_live_time():
    engine = Engine()
    assert engine.peek() == math.inf
    h1 = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    assert engine.peek() == 1.0
    h1.cancel()
    assert engine.peek() == 2.0
    engine.run()
    assert engine.peek() == math.inf


def test_heap_compaction_drops_dead_entries():
    engine = Engine()
    handles = [engine.schedule(float(i), lambda: None) for i in range(200)]
    for h in handles[:150]:
        h.cancel()
    assert engine.heap_size == 200
    assert engine.pending_events == 50
    # The next schedule sees >50% dead entries and compacts first.
    engine.schedule(500.0, lambda: None)
    assert engine.heap_size == 51
    assert engine.pending_events == 51


def test_compaction_preserves_execution_order():
    engine = Engine()
    fired = []
    handles = []
    for i in range(100):
        handles.append(engine.schedule(float(i), fired.append, i))
    for i, h in enumerate(handles):
        if i % 3 != 0:
            h.cancel()
    engine.schedule(1000.0, fired.append, 1000)  # triggers compaction
    engine.run()
    assert fired == [i for i in range(100) if i % 3 == 0] + [1000]


def test_schedule_from_callback_survives_compaction():
    """A callback scheduling mid-run must land in the live heap even if its
    schedule call triggers compaction (run() holds a local heap binding)."""
    engine = Engine()
    fired = []
    dead = [engine.schedule(0.5, lambda: None) for _ in range(100)]

    def chain(n: int) -> None:
        fired.append(n)
        for h in dead:
            h.cancel()
        if n < 3:
            engine.schedule(1.0, chain, n + 1)

    engine.schedule(0.0, chain, 0)
    engine.run(until=10.0)
    assert fired == [0, 1, 2, 3]
    assert engine.pending_events == 0


def test_schedule_at_nan_raises():
    engine = Engine()
    with pytest.raises(SimulationError, match="NaN"):
        engine.schedule_at(math.nan, lambda: None)
    assert engine.pending_events == 0


def test_step_fires_one_callback_at_a_time():
    engine = Engine()
    fired = []
    engine.schedule(2.0, fired.append, "later")
    engine.schedule(0.0, fired.append, "now")
    assert engine.step()
    assert (fired, engine.now) == (["now"], 0.0)
    assert engine.step()
    assert (fired, engine.now) == (["now", "later"], 2.0)
    assert not engine.step()


# -- zero-delay lane: callbacks due at `now` bypass the heap -------------------


def test_peek_sees_zero_delay_entry_scheduled_after_a_future_one():
    engine = Engine()
    engine.schedule(5.0, lambda: None)
    engine.schedule(0.0, lambda: None)
    assert engine.peek() == 0.0


def test_heap_entries_due_now_fire_before_the_lane():
    """A heap entry due at `now` was scheduled before the clock got there,
    so it precedes every zero-delay entry scheduled at `now`."""
    engine = Engine()
    order = []

    def first() -> None:
        order.append("first")
        engine.schedule(0.0, order.append, "lane")

    engine.schedule(1.0, first)
    engine.schedule(1.0, order.append, "heap")
    engine.schedule(1.5, order.append, "future")
    engine.run()
    assert order == ["first", "heap", "lane", "future"]


def test_lane_bookkeeping_pending_events_heap_size_and_compaction():
    engine = Engine()
    future = [engine.schedule(1.0 + i, lambda: None) for i in range(40)]
    lane = [engine.schedule(0.0, lambda: None) for _ in range(30)]
    assert engine.heap_size == 70
    assert engine.pending_events == 70
    lane[0].cancel()  # a cancelled zero-delay handle is counted dead ...
    assert engine.pending_events == 69
    assert engine.heap_size == 70  # ... but stays queued until drained
    assert engine.peek() == 0.0
    for handle in lane[1:] + future[:11]:
        handle.cancel()
    assert engine.pending_events == 29
    # 41 of 70 entries are dead: the next schedule compacts both structures.
    engine.schedule(0.0, lambda: None)
    assert engine.heap_size == 30
    assert engine.pending_events == 30
    assert engine.peek() == 0.0
    engine.run()
    assert engine.pending_events == engine.heap_size == 0

