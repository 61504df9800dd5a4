"""Discrete-event simulation core.

A minimal, deterministic process-based DES in the style of SimPy, purpose
built for the FaST-GShare reproduction.  Components:

* :class:`~repro.sim.engine.Engine` — the event loop (binary-heap scheduler,
  virtual clock, process spawning).
* :class:`~repro.sim.events.Event` — one-shot triggerable events that
  processes can wait on.
* :class:`~repro.sim.process.Process` — generator-based coroutine processes;
  a process is itself an event (joinable).
* :class:`~repro.sim.resources.Store` / :class:`~repro.sim.resources.Gate` —
  FIFO hand-off queues and level-triggered gates for building schedulers.
* :class:`~repro.sim.rng.RngStreams` — named, independently seeded random
  streams so that adding a component never perturbs another component's
  random sequence.
* :class:`~repro.sim.clock.WallClock` — the live-serving time source that
  paces ``run(until=...)`` against real time.

Everything is single-threaded and bit-exactly reproducible for a given seed.
"""

from repro.sim.clock import WallClock
from repro.sim.engine import Engine
from repro.sim.errors import SimulationError, ScheduleInPastError, Interrupt
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.resources import Gate, Store
from repro.sim.rng import RngStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "Gate",
    "Interrupt",
    "Process",
    "RngStreams",
    "ScheduleInPastError",
    "SimulationError",
    "Store",
    "Timeout",
    "WallClock",
]
