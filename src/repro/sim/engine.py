"""The discrete-event engine: virtual clock + compacting binary-heap scheduler.

The engine is deliberately small and allocation-light: the hot path (pop a
handle, run a callback) is a few attribute accesses, which keeps multi-minute
cluster simulations in the hundreds-of-milliseconds range (see
``benchmarks/test_engine_speed.py``).

Complexity guarantees
---------------------
* ``schedule`` / ``schedule_at``: O(log n) heap push.
* ``Handle.cancel``: O(1) — lazy deletion, the entry stays in the heap but is
  counted dead.  When more than half of the heap is dead (and the heap is
  non-trivially sized) the next scheduling operation **compacts** the heap:
  dead entries are dropped and the survivors re-heapified in O(n).  Amortised,
  every cancelled handle is touched O(1) extra times, and the heap never holds
  more than 2× the live entries — cancel-heavy workloads (fluid-device timer
  churn, speculative timeouts) no longer bloat ``step``'s pop loop.
* ``pending_events``: exact and O(1) (live-entry counter, not a heap scan).
* ``peek``: O(1) amortised — drains dead entries off the top only.
* ``run(until=...)``: batched fast path with locally-bound heap ops; clock
  semantics are unchanged (advances to exactly ``until`` even if no event
  fires there, mirroring SimPy so metric integrals cover the full horizon).
"""

from __future__ import annotations

import heapq
import itertools
import math
import typing as _t

from repro.obs.hub import TelemetryHub
from repro.sim.clock import Clock, SimClock
from repro.sim.errors import ScheduleInPastError, SimulationError
from repro.sim.events import Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngStreams

#: Compact the heap when dead entries outnumber live ones *and* the heap is at
#: least this large (tiny heaps are cheaper to drain than to rebuild).
_COMPACT_MIN_SIZE = 64


class Handle:
    """A cancelable reference to a scheduled callback."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_engine")

    def __init__(self, time: float, seq: int, callback: _t.Callable, args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._engine: "Engine | None" = None

    def cancel(self) -> None:
        """Prevent the callback from running (lazy deletion from the heap)."""
        if self.cancelled:
            return
        self.cancelled = True
        engine = self._engine
        if engine is not None:
            # Still in the heap: account the dead entry so pending_events
            # stays exact and compaction can trigger.
            engine._dead += 1

    def __lt__(self, other: "Handle") -> bool:
        # FIFO tie-break via the monotonically increasing sequence number so
        # same-time events run in schedule order (determinism).
        return (self.time, self.seq) < (other.time, other.seq)


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
        ``schedule``/``schedule_at`` is recorded in :attr:`trace` (costly;
        off by default).
    clock:
        The engine's time source (see :mod:`repro.sim.clock`).  Defaults to
        :class:`~repro.sim.clock.SimClock` — pure virtual event-time, the
        mode every simulation pin uses.  A live serving driver swaps in a
        :class:`~repro.sim.clock.WallClock` via :meth:`use_clock` and paces
        ``run(until=clock.now())`` against real time; the engine's timeline
        semantics are identical either way.

    Attributes
    ----------
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

    def __init__(self, seed: int = 0, trace: bool = False, clock: Clock | None = None):
        self._now: float = 0.0
        self._heap: list[Handle] = []
        self._seq = itertools.count()
        self._stopped = False
        #: Cancelled-but-not-yet-popped entries currently in the heap.
        self._dead = 0
        self.rng = RngStreams(seed)
        self.hub = TelemetryHub(enabled=trace)
        self.trace = trace
        self._processes_started = 0
        #: Optional hook called as ``on_schedule(time)`` after every push —
        #: a wall-clock driver uses it to wake early when a callback
        #: schedules work due before the driver's current sleep deadline.
        self.on_schedule: _t.Callable[[float], None] | None = None
        self.clock: Clock = clock if clock is not None else SimClock()
        self.clock.bind(self)

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current engine-timeline time in seconds."""
        return self._now

    def use_clock(self, clock: Clock) -> None:
        """Swap the time source (e.g. sim → wall at live-serve start).

        The timeline itself is untouched: scheduled handles keep their
        absolute times, and a subsequent ``run(until=...)`` fires them in
        the same order regardless of which clock paces the targets.
        """
        clock.bind(self)
        self.clock = clock

    # -- scheduling --------------------------------------------------------
    def schedule(self, delay: float, callback: _t.Callable, *args) -> Handle:
        """Run ``callback(*args)`` ``delay`` seconds from now; returns a handle."""
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: _t.Callable, *args) -> Handle:
        """Run ``callback(*args)`` at absolute virtual ``time``."""
        if time < self._now:
            raise ScheduleInPastError(
                f"cannot schedule at t={time:.9f} < now={self._now:.9f}"
            )
        if math.isnan(time):
            raise SimulationError("cannot schedule at NaN time")
        heap = self._heap
        if self._dead * 2 > len(heap) and len(heap) >= _COMPACT_MIN_SIZE:
            self._compact()
        handle = Handle(time, next(self._seq), callback, args)
        handle._engine = self
        heapq.heappush(heap, handle)
        if self.on_schedule is not None:
            self.on_schedule(time)
        if self.trace:
            self.hub.emit(
                self._now,
                "engine",
                "schedule",
                at=time,
                callback=getattr(callback, "__qualname__", repr(callback)),
            )
        return handle

    def _compact(self) -> None:
        """Drop dead entries and re-heapify — O(n), amortised O(1) per cancel.

        Determinism is unaffected: pop order is fully determined by the
        ``(time, seq)`` ordering of the surviving handles, not by their heap
        layout.
        """
        live = [h for h in self._heap if not h.cancelled]
        for handle in self._heap:
            if handle.cancelled:
                handle._engine = None
        heapq.heapify(live)
        # In-place so local bindings of the heap (run()'s hot loop, a
        # mid-compaction schedule_at) keep seeing the live structure.
        self._heap[:] = live
        self._dead = 0

    def _detach(self, handle: Handle) -> None:
        """Bookkeeping for a handle just popped off the heap."""
        handle._engine = None
        if handle.cancelled:
            self._dead -= 1

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

        Dead (cancelled) entries encountered at the top of the heap are
        drained as a side effect, so repeated peeks are O(1) amortised.
        """
        heap = self._heap
        while heap:
            handle = heap[0]
            if not handle.cancelled:
                return handle.time
            heapq.heappop(heap)
            self._detach(handle)
        return math.inf

    def step(self) -> bool:
        """Execute the next scheduled callback. Returns False if none left."""
        heap = self._heap
        while heap:
            handle = heapq.heappop(heap)
            self._detach(handle)
            if handle.cancelled:
                continue
            self._now = handle.time
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
        heap = self._heap
        heappop = heapq.heappop  # local binding: the loop below is the hot path
        if until is None:
            step = self.step
            while not self._stopped and step():
                pass
            return self._now
        if until < self._now:
            raise ScheduleInPastError(f"run(until={until}) is in the past (now={self._now})")
        while not self._stopped and heap:
            handle = heap[0]
            if handle.cancelled:
                heappop(heap)
                self._detach(handle)
                continue
            if handle.time > until:
                break
            heappop(heap)
            self._detach(handle)
            self._now = handle.time
            handle.callback(*handle.args)
        if not self._stopped:
            self._now = max(self._now, until)
        return self._now

    def stop(self) -> None:
        """Stop :meth:`run` after the currently executing callback returns."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled callbacks in the queue (exact, O(1))."""
        return len(self._heap) - self._dead

    @property
    def heap_size(self) -> int:
        """Raw heap length including dead entries (introspection for tests)."""
        return len(self._heap)
