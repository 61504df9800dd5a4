"""Generator-coroutine processes.

A process wraps a generator that ``yield``\\ s either an
:class:`~repro.sim.events.Event` or a bare non-negative ``float`` delay in
seconds.  On an event the process sleeps until it settles, then resumes
with its value (or the exception, re-raised at the yield point).  A delay
is a sleep that builds no event: the process schedules its own wake
``delay`` seconds on and resumes with ``None``, in the heap slot a
:class:`~repro.sim.events.Timeout` would have taken.  A negative delay
raises :class:`ScheduleInPastError` and a NaN :class:`SimulationError` at
the yield, as :meth:`~repro.sim.engine.Engine.timeout` would.

A :class:`Process` is itself an :class:`Event`: it succeeds with the
generator's return value, or fails with any uncaught exception, so processes
can ``yield`` other processes to join them.
"""

from __future__ import annotations

import typing as _t

from repro.sim.errors import Interrupt, ScheduleInPastError, SimulationError
from repro.sim.events import FAILED, PENDING, Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class Process(Event):
    """A running simulation process (see module docstring)."""

    __slots__ = ("_generator", "_waiting_on", "_interrupts", "_sleep_token")

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
        #: The current sleep's token: every sleep takes a fresh one and an
        #: interrupt bumps it, so a queued wake of an abandoned sleep is stale.
        self._sleep_token = 0
        # Start on the next engine step (at the current time) so that the
        # spawner can finish wiring up state before the process body runs.
        engine.schedule(0.0, self._resume, None)

    # -- public API ----------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        return self._state is PENDING

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting a finished process is a silent no-op (matching the
        common "cancel if still running" usage in controllers).
        """
        if self._state is not PENDING:
            return
        self._interrupts.append(Interrupt(cause))
        self._waiting_on, self._sleep_token = None, self._sleep_token + 1
        # Deliver on the engine loop, never re-entrantly.
        self.engine.schedule(0.0, self._deliver_interrupt)

    # -- engine plumbing -------------------------------------------------------
    def _deliver_interrupt(self) -> None:
        if self._state is not PENDING or not self._interrupts:
            return
        # The throw abandons the current wait, even one begun after interrupt().
        self._waiting_on, self._sleep_token = None, self._sleep_token + 1
        self._step(self._generator.throw, self._interrupts.pop(0))

    def _resume(self, event: Event | None) -> None:
        if self._state is not PENDING:
            return
        if event is None:
            self._step(self._generator.send, None)
            return
        if event is not self._waiting_on:
            return  # stale wakeup raced with an interrupt
        self._waiting_on = None
        generator = self._generator
        self._step(generator.throw if event._state is FAILED else generator.send, event._value)

    def _wake(self, token: int, deferred: bool = False) -> None:
        """End of a sleep on a bare delay, unless an interrupt made ``token``
        stale.  When the wake is, inside :meth:`Engine.run`, the last thing
        due now, the deferred resume would be the next dispatch, so the
        process resumes inline (see :mod:`repro.sim.engine`); otherwise it
        defers through the lane like any other wakeup."""
        if token != self._sleep_token or self._state is not PENDING:
            return
        engine = self.engine
        if deferred or engine._at_tail():
            self._step(self._generator.send, None)
        else:
            engine.schedule_at(engine.now, self._wake, token, True)

    def _step(self, advance: _t.Callable[[object], object], arg: object) -> None:
        """Advance the generator by ``advance(arg)`` (its ``send`` or
        ``throw``) and wait on the event or delay it yields next."""
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
        if target.__class__ is not float:
            if isinstance(target, Event):
                if target is self:
                    self.fail(SimulationError(f"process {self.name} waited on itself"))
                    return
                self._waiting_on = target
                target.add_callback(self._on_target_settled)
                return
            if not isinstance(target, float):
                self.fail(
                    TypeError(
                        f"process {self.name} yielded {target!r}; processes must yield "
                        "an Event (Timeout, Store.get(), ...) or a delay in seconds"
                    )
                )
                return
            target = float(target)
        if target >= 0.0:
            self._sleep_token += 1
            engine = self.engine
            engine.schedule_at(engine.now + target, self._wake, self._sleep_token)
        elif target < 0.0:
            self._step(self._generator.throw, ScheduleInPastError(f"negative delay {target!r}"))
        else:
            self._step(self._generator.throw, SimulationError("cannot sleep for a NaN delay"))

    def _on_target_settled(self, event: Event) -> None:
        # Ignore stale wakeups from events we stopped waiting on (interrupt).
        # Defer resumption through the engine queue: schedulers that settle
        # events mid-iteration (e.g. the FaST Backend dispatch loop) must
        # never have a process body re-enter them synchronously.
        if event is self._waiting_on:
            engine = self.engine
            engine.schedule_at(engine.now, self._resume, event)
