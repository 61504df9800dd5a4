"""Generator-coroutine processes.

A process wraps a generator that ``yield``\\ s :class:`~repro.sim.events.Event`
instances; the process sleeps until the yielded event settles, then resumes
with the event's value (or the exception, re-raised at the yield point).

A :class:`Process` is itself an :class:`Event`: it succeeds with the
generator's return value, or fails with any uncaught exception, so processes
can ``yield`` other processes to join them.
"""

from __future__ import annotations

import typing as _t

from repro.sim.errors import Interrupt, SimulationError  # noqa: F401 (re-export)
from repro.sim.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class Process(Event):
    """A running simulation process (see module docstring)."""

    __slots__ = ("_generator", "_waiting_on", "_interrupts")

    def __init__(self, engine: "Engine", generator: _t.Generator, name: str):
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you call the function instead of passing its generator?"
            )
        super().__init__(engine, name)
        self._generator = generator
        self._waiting_on: Event | None = None
        self._interrupts: list[Interrupt] = []
        # Start on the next engine step (at the current time) so that the
        # spawner can finish wiring up state before the process body runs.
        engine.schedule(0.0, self._resume, None)

    # -- public API ----------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting a finished process is a silent no-op (matching the
        common "cancel if still running" usage in controllers).
        """
        if self.triggered:
            return
        self._interrupts.append(Interrupt(cause))
        waiting, self._waiting_on = self._waiting_on, None
        # Deliver on the engine loop, never re-entrantly.
        self.engine.schedule(0.0, self._deliver_interrupt, waiting)

    # -- engine plumbing -------------------------------------------------------
    def _deliver_interrupt(self, stale_target: Event | None) -> None:
        if self.triggered or not self._interrupts:
            return
        self._step(self._generator.throw, self._interrupts.pop(0))

    def _resume(self, event: Event | None) -> None:
        if self.triggered:
            return
        if event is None:
            self._step(self._generator.send, None)
            return
        if event is not self._waiting_on:
            return  # stale wakeup raced with an interrupt
        self._waiting_on = None
        if event.failed:
            self._step(self._generator.throw, event.value)
        else:
            self._step(self._generator.send, event.value)

    def _step(self, advance: _t.Callable[[object], object], arg: object) -> None:
        """Advance the generator by ``advance(arg)`` (its ``send`` or
        ``throw``) and wait on the event it yields next."""
        try:
            target = advance(arg)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as interrupt:
            # An interrupt the process body did not catch: the process dies
            # with it (SimPy semantics); the spawner sees a failed event.
            self.fail(interrupt)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self.fail(
                TypeError(
                    f"process {self.name} yielded {target!r}; processes must "
                    "yield Event instances (Timeout, Store.get(), ...)"
                )
            )
            return
        if target is self:
            self.fail(SimulationError(f"process {self.name} waited on itself"))
            return
        self._waiting_on = target
        target.add_callback(self._on_target_settled)

    def _on_target_settled(self, event: Event) -> None:
        # Ignore stale wakeups from events we stopped waiting on (interrupt).
        if event is not self._waiting_on:
            return
        if event._tail:
            # A timeout fired as the last thing due now: the deferred resume
            # would be the next dispatch anyway (see repro.sim.engine).
            event._tail = False
            self._resume(event)
            return
        # Defer resumption through the engine queue: schedulers that settle
        # events mid-iteration (e.g. the FaST Backend dispatch loop) must
        # never have a process body re-enter them synchronously.
        self.engine.schedule(0.0, self._resume, event)
