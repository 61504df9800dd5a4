"""The live-serving time source: the engine's timeline paced by wall time.

A simulation needs no clock object: :meth:`Engine.run` jumps from event to
event and ``engine.now`` is the only record of virtual time.  Live serving
runs the *identical* engine and control plane, but something must pick the
``run(until=...)`` targets from real time.  :class:`WallClock` anchors a
monotonic time source at an engine-timeline ``origin``; a driver (see
:mod:`repro.serve.driver`) repeatedly advances the engine to
``clock.now()`` so scheduled callbacks (autoscaler ticks, service
completions, keep-alive timers) fire at the wall moment their virtual
timestamp comes due.

``WallClock`` readings are guaranteed monotonically non-decreasing even if
the underlying ``time_fn`` jitters backwards (a clamped floor), because the
engine refuses to schedule or run into the past.
"""

from __future__ import annotations

import time
import typing as _t


class WallClock:
    """Real time, anchored at an engine-timeline origin.

    Parameters
    ----------
    time_fn:
        Monotonic time source (seconds).  Injectable for tests; defaults to
        :func:`time.monotonic`.

    Until :meth:`start` is called the clock reads ``origin`` (serving has
    not begun; deployment/warm-up still runs in pure virtual time).  After
    ``start(origin)``, ``now()`` is ``origin + elapsed_wall_seconds``,
    clamped to never decrease.
    """

    __slots__ = ("_time_fn", "_origin", "_epoch", "_floor")

    def __init__(self, time_fn: _t.Callable[[], float] = time.monotonic) -> None:
        self._time_fn = time_fn
        self._origin = 0.0
        self._epoch: float | None = None
        self._floor = 0.0

    @property
    def started(self) -> bool:
        return self._epoch is not None

    def start(self, origin: float = 0.0) -> None:
        """Anchor real time at engine-timeline ``origin`` (idempotent-free)."""
        if self._epoch is not None:
            raise RuntimeError("WallClock already started")
        self._origin = float(origin)
        self._floor = self._origin
        self._epoch = self._time_fn()

    def now(self) -> float:
        """Current reading on the engine's timeline, in seconds."""
        if self._epoch is None:
            return self._origin
        reading = self._origin + (self._time_fn() - self._epoch)
        # Clamp: a jittering time source must never read backwards, or the
        # engine would be asked to run(until=...) into its own past.
        if reading > self._floor:
            self._floor = reading
        return self._floor
