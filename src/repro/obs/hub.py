"""The deterministic telemetry hub every subsystem emits structured events to.

One :class:`TelemetryHub` per engine is the single event stream of a run:
gateway admissions and promotions, scheduler placements (including per-node
reject reasons on a no-fit), autoscaler decisions with their forecast
inputs, memory-tier demote/promote/evict with the fabric contention at
decision time, pod phase transitions, and the engine's own timer channel
(``Engine(trace=True)`` emits an ``engine``/``schedule`` event per
scheduled callback).

An ``autoscaler``/``tick`` row records what the policy saw, so only
functions the tick viewed emit one: a sleeping function (see
:mod:`repro.autoscaler.controller`) emits none until it wakes.

Design constraints (enforced by tests):

* **off by default, zero-cost when disabled** — a disabled hub's
  :meth:`~TelemetryHub.emit` returns before touching any state, and the
  per-request hot paths additionally guard on :attr:`~TelemetryHub.enabled`
  so no payload dict is even built;
* **deterministic** — event times are the engine's virtual clock only;
  wall-clock never enters a payload, so two runs of the same scenario
  produce byte-identical event streams;
* **bounded** — at most ``max_events`` events are kept; overflow is counted
  in :attr:`~TelemetryHub.dropped` instead of being silently discarded.
"""

from __future__ import annotations

import dataclasses
import typing as _t


@dataclasses.dataclass(frozen=True, slots=True)
class TelemetryEvent:
    """One structured event: (virtual time, source subsystem, kind, payload)."""

    time: float
    source: str
    kind: str
    function: str | None
    payload: _t.Mapping[str, object]

    def to_dict(self) -> dict:
        data: dict[str, object] = {
            "time": self.time,
            "source": self.source,
            "kind": self.kind,
        }
        if self.function is not None:
            data["function"] = self.function
        if self.payload:
            data["payload"] = dict(self.payload)
        return data

    def __str__(self) -> str:
        fields = " ".join(f"{k}={v}" for k, v in self.payload.items())
        fn = f" fn={self.function}" if self.function else ""
        return f"[{self.time:12.6f}] {self.source:<12} {self.kind:<20}{fn} {fields}"


class TelemetryHub:
    """Append-only structured event stream; disabled by default."""

    __slots__ = ("enabled", "max_events", "events", "dropped", "tap")

    def __init__(self, enabled: bool = False, max_events: int = 1_000_000):
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.enabled = enabled
        self.max_events = max_events
        self.events: list[TelemetryEvent] = []
        self.dropped = 0
        #: Optional live observer called with every emitted event *before*
        #: the bounded-buffer append (so a live stream keeps flowing even
        #: after the buffer fills).  Only consulted while enabled — the
        #: disabled fast path is untouched.  Used by the serve subsystem's
        #: NDJSON telemetry endpoint.
        self.tap: _t.Callable[[TelemetryEvent], None] | None = None

    def emit(
        self,
        time: float,
        source: str,
        kind: str,
        function: str | None = None,
        **payload: object,
    ) -> None:
        """Record one event (no-op while disabled; counted drop when full)."""
        if not self.enabled:
            return
        event = TelemetryEvent(time, source, kind, function, payload)
        if self.tap is not None:
            self.tap(event)
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    # -- queries -------------------------------------------------------------
    def filter(
        self,
        source: str | None = None,
        kind: str | None = None,
        function: str | None = None,
    ) -> list[TelemetryEvent]:
        """Events matching the given source/kind prefixes and function."""
        out = []
        for event in self.events:
            if source is not None and not event.source.startswith(source):
                continue
            if kind is not None and not event.kind.startswith(kind):
                continue
            if function is not None and event.function != function:
                continue
            out.append(event)
        return out

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.events)
