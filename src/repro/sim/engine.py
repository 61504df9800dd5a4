"""The discrete-event engine: virtual clock + zero-delay lane + compacting heap.

The engine is deliberately small and allocation-light: the hot path (pop a
handle, run a callback) is a few attribute accesses, which keeps multi-minute
cluster simulations in the hundreds-of-milliseconds range (see
``benchmarks/test_engine_speed.py``).

Callbacks fire in ``(time, schedule order)``, and live in one of two
structures:

* the **lane** — a FIFO ``deque`` of callbacks scheduled *at* the current
  time (process starts and resumes, event settles, interrupts);
* the **heap** — ``(time, seq, handle)`` tuples for future callbacks, so
  heap comparisons run in C (``seq`` breaks same-time ties FIFO).

Every lane entry is due at ``now``.  A heap entry due at ``now`` was
scheduled before the clock reached ``now``, so before every lane entry: the
dispatch rule "heap entries due at ``now`` first, then the lane, then the
future heap" fires exactly the order a single heap would.

Inline tail resumes
-------------------
A process wakes from a sleep (a bare delay it yielded, see
:mod:`repro.sim.process`) through its own heap entry, and normally resumes
through a zero-delay lane entry, like every other wakeup.  When the wake
fires from :meth:`Engine.run` while the lane is empty and no heap entry is
due at ``now`` (:meth:`Engine._at_tail`), the deferred resume would be the
very next dispatch: the lane holds nothing ahead of it, no heap entry at
``now`` would go first, and the wake does nothing after it.  So the process
resumes inline, inside the wake, and the firing order is identical.  Event
settles keep deferring, because they happen in the middle of a callback
whose remaining work must run first; so do wakes fired by :meth:`step`.
A consequence the FaST Backend relies on: a process body never runs while a
heap entry due at ``now`` is still queued.

Complexity guarantees
---------------------
* ``schedule_at(now, ...)``: O(1) lane append; ``schedule_at(t > now, ...)``:
  O(log n) heap push.
* ``Handle.cancel``: O(1) — lazy deletion, the entry stays queued but is
  counted dead.  When more than half of the queued entries are dead (and
  the queue is non-trivially sized) the next scheduling operation
  **compacts**: dead entries are dropped from the lane and the heap and the
  heap survivors re-heapified in O(n).  Amortised, every cancelled handle
  is touched O(1) extra times, and the queue never holds more than 2× the
  live entries — cancel-heavy workloads (fluid-device timer churn,
  speculative timeouts) no longer bloat the dispatch loop.
* ``pending_events``: exact and O(1) (live-entry counter, not a scan).
* ``peek``: O(1) amortised — drains dead entries off the lane head and the
  heap top only.
* ``run(until=...)``: one dispatch loop shared with ``step``'s rule; clock
  semantics are unchanged (advances to exactly ``until`` even if no event
  fires there, mirroring SimPy so metric integrals cover the full horizon).
"""

from __future__ import annotations

import collections
import heapq
import itertools
import math
import typing as _t

from repro.obs.hub import TelemetryHub
from repro.sim.errors import ScheduleInPastError, SimulationError
from repro.sim.events import Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngStreams

#: Compact when dead entries outnumber live ones *and* the lane plus the heap
#: hold at least this many (tiny queues are cheaper to drain than to rebuild).
_COMPACT_MIN_SIZE = 64


class Handle:
    """A cancelable reference to a scheduled callback."""

    __slots__ = ("time", "callback", "args", "cancelled", "_engine")

    def __init__(self, engine: "Engine", time: float, callback: _t.Callable, args: tuple):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: The engine while the handle is queued; None once taken off.
        self._engine: "Engine | None" = engine

    def cancel(self) -> None:
        """Prevent the callback from running (lazy deletion from the queue)."""
        if self.cancelled:
            return
        self.cancelled = True
        engine = self._engine
        if engine is not None:
            # Still queued (lane or heap): account the dead entry so
            # pending_events stays exact and compaction can trigger.
            engine._dead += 1


class Engine:
    """Virtual-time event loop.

    Parameters
    ----------
    seed:
        Master seed for :class:`~repro.sim.rng.RngStreams`; every component
        derives an independent stream from it so simulations are bit-exactly
        reproducible.
    trace:
        When true, enable the engine-timer trace channel: every
        ``schedule``/``schedule_at`` emits an ``engine``/``schedule`` event
        to :attr:`hub`, which this flag also enables (costly; off by
        default).

    Attributes
    ----------
    now:
        Current engine-timeline time in seconds.  Only the dispatch loop
        assigns it; a plain attribute, because every hot path reads it.
    hub:
        The run's :class:`~repro.obs.hub.TelemetryHub` — the single event
        stream all subsystems (gateway, scheduler, autoscaler, memory tier,
        pod lifecycle) emit structured telemetry to.  Disabled by default;
        scenario runs flip ``hub.enabled`` when measurement telemetry is on.
    trace:
        Whether every ``schedule_at`` emits an ``engine``/``schedule`` event
        to the hub — the engine-timer channel, gated separately so scenario
        telemetry does not drown in timer events.
    """

    def __init__(self, seed: int = 0, trace: bool = False):
        self.now: float = 0.0
        #: Callbacks due at ``now``, in schedule order.
        self._lane: collections.deque[Handle] = collections.deque()
        #: Future callbacks as ``(time, seq, handle)``.
        self._heap: list[tuple[float, int, Handle]] = []
        self._seq = itertools.count()
        self._stopped = False
        #: True while :meth:`run` dispatches (tail resumes go inline only there).
        self._running = False
        #: Cancelled-but-not-yet-popped entries currently in the lane or heap.
        self._dead = 0
        self.rng = RngStreams(seed)
        self.hub = TelemetryHub(enabled=trace)
        self.trace = trace
        self._processes_started = 0
        #: Optional hook called as ``on_schedule(time)`` after every push —
        #: a wall-clock driver uses it to wake early when a callback
        #: schedules work due before the driver's current sleep deadline.
        self.on_schedule: _t.Callable[[float], None] | None = None

    # -- scheduling --------------------------------------------------------
    def schedule(self, delay: float, callback: _t.Callable, *args) -> Handle:
        """Run ``callback(*args)`` ``delay`` seconds from now; returns a handle."""
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: _t.Callable, *args) -> Handle:
        """Run ``callback(*args)`` at absolute virtual ``time``."""
        now = self.now
        if not time >= now:  # in the past, or NaN: one comparison on the hot path
            if math.isnan(time):
                raise SimulationError("cannot schedule at NaN time")
            raise ScheduleInPastError(f"cannot schedule at t={time:.9f} < now={now:.9f}")
        dead = self._dead
        if dead and dead * 2 > len(self._lane) + len(self._heap) >= _COMPACT_MIN_SIZE:
            self._compact()
        handle = Handle(self, time, callback, args)
        if time == now:
            self._lane.append(handle)
        else:
            heapq.heappush(self._heap, (time, next(self._seq), handle))
        if self.on_schedule is not None:
            self.on_schedule(time)
        if self.trace:
            self.hub.emit(
                now,
                "engine",
                "schedule",
                at=time,
                callback=getattr(callback, "__qualname__", repr(callback)),
            )
        return handle

    def _compact(self) -> None:
        """Drop dead lane and heap entries, re-heapify — O(n), amortised O(1)
        per cancel.

        Determinism is unaffected: dispatch order is fully determined by the
        surviving handles' times and schedule order, not by the heap layout.
        """
        lane = self._lane
        heap = self._heap
        for handle in lane:
            if handle.cancelled:
                handle._engine = None
        for entry in heap:
            if entry[2].cancelled:
                entry[2]._engine = None
        live_lane = [h for h in lane if not h.cancelled]
        live = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(live)
        # In-place: the schedule_at that triggered compaction keeps using
        # its local bindings of both structures afterwards.
        lane.clear()
        lane.extend(live_lane)
        heap[:] = live
        self._dead = 0

    def _pop(self, until: float) -> Handle | None:
        """Remove and return the next queued handle due by ``until``, dead or
        alive, or None when nothing is.

        Heap entries due at ``now`` go before the lane (they were scheduled
        before the clock reached ``now``, so before every lane entry); the
        heap's future entries go after it.  A dead heap top is returned even
        past ``until`` so it is drained.
        """
        lane = self._lane
        heap = self._heap
        if lane and not (heap and heap[0][0] <= self.now):
            return lane.popleft()
        if heap:
            time, _, handle = heap[0]
            if time <= until or handle.cancelled:
                heapq.heappop(heap)
                return handle
        return None

    def _detach(self, handle: Handle) -> None:
        """Bookkeeping for a handle just taken off the lane or the heap."""
        handle._engine = None
        if handle.cancelled:
            self._dead -= 1

    def _at_tail(self) -> bool:
        """True when the callback firing now is, inside :meth:`run`, the last
        thing due at ``now``: the lane is empty and no heap entry is due at
        ``now``, so a zero-delay entry it queued would be dispatched next."""
        heap = self._heap
        return self._running and not self._lane and not (heap and heap[0][0] <= self.now)

    # -- event / process factories ------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending event bound to this engine."""
        return Event(self, name)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that succeeds ``delay`` seconds from now."""
        if delay < 0:
            raise ScheduleInPastError(f"negative timeout {delay!r}")
        return Timeout(self, delay, value)

    def process(self, generator: _t.Generator, name: str = "") -> Process:
        """Spawn a coroutine process; it starts on the next engine step."""
        self._processes_started += 1
        return Process(self, generator, name or f"proc-{self._processes_started}")

    # -- running -------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next live event, or ``math.inf`` if the queue is empty.

        The minimum over the lane and the heap.  Dead (cancelled) entries
        at the lane head and the heap top are drained as a side effect, so
        repeated peeks are O(1) amortised.
        """
        lane = self._lane
        heap = self._heap
        while lane and lane[0].cancelled:
            self._detach(lane.popleft())
        while heap and heap[0][2].cancelled:
            self._detach(heapq.heappop(heap)[2])
        time = lane[0].time if lane else math.inf
        if heap and heap[0][0] < time:
            time = heap[0][0]
        return time

    def step(self) -> bool:
        """Execute the next scheduled callback. Returns False if none left."""
        while (handle := self._pop(math.inf)) is not None:
            self._detach(handle)
            if handle.cancelled:
                continue
            self.now = handle.time
            handle.callback(*handle.args)
            return True
        return False

    def run(self, until: float | None = None) -> float:
        """Run until the queue drains or the clock would pass ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if no event fires there, mirroring SimPy semantics so metric
        integrals cover the full horizon.
        """
        self._stopped = False
        if until is not None and until < self.now:
            raise ScheduleInPastError(f"run(until={until}) is in the past (now={self.now})")
        pop = self._pop  # local binding: the loop below is the hot path
        limit = math.inf if until is None else until
        self._running = True
        try:
            while not self._stopped and (handle := pop(limit)) is not None:
                handle._engine = None
                if handle.cancelled:
                    self._dead -= 1
                    continue
                self.now = handle.time
                handle.callback(*handle.args)
        finally:
            self._running = False
        if until is not None and not self._stopped:
            self.now = max(self.now, until)
        return self.now

    def stop(self) -> None:
        """Stop :meth:`run` after the currently executing callback returns."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled callbacks in the queue (exact, O(1))."""
        return len(self._lane) + len(self._heap) - self._dead

    @property
    def heap_size(self) -> int:
        """Raw queue length, lane plus heap, including dead entries
        (introspection for tests)."""
        return len(self._lane) + len(self._heap)
