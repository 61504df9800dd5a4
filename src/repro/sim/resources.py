"""Synchronisation primitives built on events: FIFO stores and gates."""

from __future__ import annotations

import collections
import typing as _t

from repro.sim.errors import SimulationError
from repro.sim.events import PENDING, Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class Store:
    """An unbounded (or bounded) FIFO hand-off queue.

    ``put`` is synchronous (raises :class:`StoreFullError` when bounded and
    full); ``get`` returns an :class:`Event` that succeeds with the item —
    immediately if one is queued, otherwise when the next ``put`` arrives.
    Getters are served strictly FIFO.
    """

    def __init__(self, engine: "Engine", capacity: float = float("inf"), name: str = ""):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._items: collections.deque = collections.deque()
        self._getters: collections.deque[Event] = collections.deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: object) -> None:
        """Enqueue ``item``, waking the oldest waiting getter if any."""
        while self._getters:
            getter = self._getters.popleft()
            if getter._state is PENDING:  # skip abandoned getters
                getter.succeed(item)
                return
        if len(self._items) >= self.capacity:
            raise StoreFullError(f"store {self.name or id(self)} is full ({self.capacity})")
        self._items.append(item)

    def try_put(self, item: object) -> bool:
        """Like :meth:`put` but returns False instead of raising when full."""
        try:
            self.put(item)
        except StoreFullError:
            return False
        return True

    def get(self) -> Event:
        """Return an event yielding the next item (FIFO)."""
        event = self.engine.event(f"{self.name}.get")
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def get_nowait(self) -> object:
        """Pop an item immediately; raises :class:`StoreEmptyError` if none."""
        if not self._items:
            raise StoreEmptyError(f"store {self.name or id(self)} is empty")
        return self._items.popleft()

    def drain(self) -> list:
        """Remove and return all queued items (used by drain-on-scale-down)."""
        items = list(self._items)
        self._items.clear()
        return items


class StoreFullError(SimulationError):
    """Raised by :meth:`Store.put` on a bounded, full store."""


class StoreEmptyError(SimulationError):
    """Raised by :meth:`Store.get_nowait` on an empty store."""


class Gate:
    """A level-triggered gate: processes wait until the gate is open.

    Unlike an event, a gate can close and re-open repeatedly; each ``wait()``
    returns a fresh event tied to the *current* closed period.
    """

    def __init__(self, engine: "Engine", open_: bool = True, name: str = ""):
        self.engine = engine
        self.name = name
        self._open = open_
        self._waiters: list[Event] = []

    def wait(self) -> Event:
        """Event that succeeds immediately if open, else on the next open()."""
        event = self.engine.event(f"{self.name}.wait")
        if self._open:
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def open(self) -> None:
        """Open the gate, releasing every waiter."""
        self._open = True
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if waiter._state is PENDING:
                waiter.succeed()

    def close(self) -> None:
        self._open = False
