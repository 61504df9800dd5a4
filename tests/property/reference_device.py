"""The seed's O(n)-per-transition fluid device, kept as a reference model.

This is the original formulation of :class:`repro.gpu.device.GPUDevice`
(one completion timer per resident burst, O(n) demand/occupancy scans, and a
full timer cancel+reschedule sweep on every transition).  It is retained —
verbatim apart from the unified ``_EPSILON`` — as the differential oracle:
``test_device_churn.py`` replays identical burst schedules through this
model and the production single-timer model and asserts completion times,
work conservation, and metric integrals agree.

It lives with the tests because nothing else uses it; it exists to pin down
semantics, not to be fast.
"""

from __future__ import annotations

import typing as _t

from repro.gpu.device import _EPSILON
from repro.gpu.kernels import KernelBurst
from repro.gpu.memory import MemoryLedger
from repro.gpu.metrics import GPUMetrics
from repro.gpu.specs import GPUSpec

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine, Handle
    from repro.sim.events import Event


class _ReferenceBurstHandle:
    """Tracks one resident burst; ``done`` settles at completion."""

    __slots__ = ("burst", "done", "remaining", "speed", "_timer", "started_at")

    def __init__(self, burst: KernelBurst, done: "Event", now: float):
        self.burst = burst
        self.done = done
        self.remaining = burst.duration
        self.speed = 1.0
        self._timer: "Handle | None" = None
        self.started_at = now


class ReferenceGPUDevice:
    """Seed-semantics fluid device: per-burst timers, O(n) transitions."""

    def __init__(self, engine: "Engine", spec: GPUSpec, name: str = ""):
        spec.validate()
        self.engine = engine
        self.spec = spec
        self.name = name or spec.name
        self.memory = MemoryLedger(spec.usable_mb, self.name)
        self.metrics = GPUMetrics()
        self._active: dict[int, _ReferenceBurstHandle] = {}
        self._next_id = 0
        self._last_update = engine.now
        self.completed_work = 0.0
        self.completed_bursts = 0

    # -- introspection ---------------------------------------------------
    @property
    def active_count(self) -> int:
        return len(self._active)

    @property
    def active_demand(self) -> float:
        return sum(h.burst.sm_demand for h in self._active.values())

    @property
    def current_speed(self) -> float:
        demand = self.active_demand
        return 1.0 if demand <= 100.0 else 100.0 / demand

    @property
    def instantaneous_occupancy(self) -> float:
        speed = self.current_speed
        return sum(h.burst.sm_activity * speed for h in self._active.values())

    # -- execution ----------------------------------------------------------
    def submit(self, burst: KernelBurst) -> "Event":
        done = self.engine.event(f"{self.name}.burst.{self._next_id}")
        if burst.duration == 0.0:
            done.succeed(0.0)
            self.completed_bursts += 1
            return done
        self._advance_state()
        handle = _ReferenceBurstHandle(burst, done, self.engine.now)
        self._active[self._next_id] = handle
        self._next_id += 1
        self._reassign_speeds()
        return done

    def sync_metrics(self) -> None:
        self._advance_state()
        self._reassign_speeds()

    # -- internals -------------------------------------------------------------
    def _advance_state(self) -> None:
        now = self.engine.now
        if now < self._last_update:
            raise RuntimeError("clock went backwards")
        dt = now - self._last_update
        if dt > 0.0:
            occ_rate = sum(
                h.burst.sm_activity * h.speed for h in self._active.values()
            )
            self.metrics.integrate(self._last_update, now, len(self._active), occ_rate)
            for handle in self._active.values():
                handle.remaining -= dt * handle.speed
        self._last_update = now

    def _reassign_speeds(self) -> None:
        for key, handle in list(self._active.items()):
            if handle.remaining <= _EPSILON:
                self._finish(key, handle)
        speed = self.current_speed
        for key, handle in self._active.items():
            handle.speed = speed
            if handle._timer is not None:
                handle._timer.cancel()
            eta = handle.remaining / speed
            handle._timer = self.engine.schedule(eta, self._on_timer, key)

    def _on_timer(self, key: int) -> None:
        if key not in self._active:
            return
        self._advance_state()
        handle = self._active.get(key)
        if handle is not None and handle.remaining <= _EPSILON:
            self._finish(key, handle)
        self._reassign_speeds()

    def _finish(self, key: int, handle: _ReferenceBurstHandle) -> None:
        del self._active[key]
        if handle._timer is not None:
            handle._timer.cancel()
        self.completed_work += handle.burst.duration
        self.completed_bursts += 1
        busy = self.engine.now - handle.started_at
        if not handle.done.triggered:
            handle.done.succeed(busy)
