"""One-shot events, timeouts, and composite wait conditions.

An :class:`Event` is the unit of synchronisation: processes ``yield`` events
and are resumed when the event settles.  Events settle exactly once, either
successfully (``succeed``) carrying a value, or exceptionally (``fail``)
carrying an exception that is re-raised inside every waiting process.
"""

from __future__ import annotations

import typing as _t

from repro.sim.errors import EventAlreadyTriggeredError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

# Event lifecycle states.
PENDING = "pending"
SUCCEEDED = "succeeded"
FAILED = "failed"


class Event:
    """A one-shot event that callbacks/processes can subscribe to.

    Callbacks are invoked *synchronously* from the engine loop at the moment
    the event settles (for timeouts) or immediately when user code calls
    :meth:`succeed`/:meth:`fail`.  Processes subscribe via their resume hook.
    """

    __slots__ = ("engine", "_state", "_value", "_callbacks", "name")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.name = name
        self._state = PENDING
        self._value: object = None
        self._callbacks: list[_t.Callable[[Event], None]] = []

    # -- inspection -------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has settled (successfully or not)."""
        return self._state is not PENDING

    @property
    def ok(self) -> bool:
        return self._state is SUCCEEDED

    @property
    def failed(self) -> bool:
        return self._state is FAILED

    @property
    def value(self) -> object:
        """The success value, or the exception instance if the event failed."""
        return self._value

    # -- subscription ------------------------------------------------------
    def add_callback(self, callback: _t.Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event settles.

        If the event already settled the callback runs immediately; this makes
        "wait on maybe-already-done" race-free for schedulers.
        """
        if self._state is not PENDING:
            callback(self)
        else:
            self._callbacks.append(callback)

    # -- triggering --------------------------------------------------------
    def succeed(self, value: object = None) -> "Event":
        """Settle the event successfully, waking all subscribers."""
        if self._state is not PENDING:
            raise EventAlreadyTriggeredError(f"event {self.name or id(self)} already settled")
        self._state = SUCCEEDED
        self._value = value
        self._dispatch()
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Settle the event exceptionally; subscribers re-raise ``exception``."""
        if self._state is not PENDING:
            raise EventAlreadyTriggeredError(f"event {self.name or id(self)} already settled")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._state = FAILED
        self._value = exception
        self._dispatch()
        return self

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Event {self.name or hex(id(self))} {self._state}>"


class Timeout(Event):
    """An event that succeeds automatically ``delay`` time units from now."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: object = None, name: str = ""):
        super().__init__(engine, name or f"timeout({delay:g})")
        self.delay = float(delay)
        engine.schedule(self.delay, self._fire, value)

    def _fire(self, value: object) -> None:
        if self._state is PENDING:  # may have been force-settled by a test
            self.succeed(value)


class _Composite(Event):
    """Shared machinery for AllOf / AnyOf."""

    __slots__ = ("events", "_remaining")

    def __init__(self, engine: "Engine", events: _t.Sequence[Event], name: str):
        super().__init__(engine, name)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            event.add_callback(self._child_settled)

    def _child_settled(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Composite):
    """Succeeds when every child succeeded; fails fast on the first failure."""

    __slots__ = ()

    def __init__(self, engine: "Engine", events: _t.Sequence[Event]):
        super().__init__(engine, events, f"all_of({len(events)})")

    def _child_settled(self, event: Event) -> None:
        if self._state is not PENDING:
            return
        if event._state is FAILED:
            self.fail(event._value)  # type: ignore[arg-type]
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e._value for e in self.events])


class AnyOf(_Composite):
    """Succeeds (or fails) as soon as the first child settles."""

    __slots__ = ()

    def __init__(self, engine: "Engine", events: _t.Sequence[Event]):
        super().__init__(engine, events, f"any_of({len(events)})")

    def _child_settled(self, event: Event) -> None:
        if self._state is not PENDING:
            return
        if event._state is FAILED:
            self.fail(event._value)  # type: ignore[arg-type]
        else:
            self.succeed(event._value)
