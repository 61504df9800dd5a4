"""The GPU execution engine: capacity-sharing ("fluid") kernel model.

Concurrent bursts share the device under processor-sharing semantics driven
by their SM demands (DESIGN.md §4):

* Σ demand ≤ 100%  → every burst runs at full speed (true MPS concurrency);
* Σ demand > 100%  → every burst runs at speed ``100 / Σ demand`` — which for
  unpartitioned tenants (demand = 100 each) degenerates to the serialised
  time-sharing behaviour the paper measures in Fig. 1b.

On every transition (burst submitted / completed / evicted) the device
re-integrates metrics for the elapsed constant-state interval.  Work is
conserved exactly: the property tests check that total executed burst work
equals submitted work regardless of the interleaving.

Complexity guarantees
---------------------
Because every resident burst runs at the *same* processor-sharing speed, the
device tracks a **virtual work clock** ``V(t) = ∫ speed dt``: a burst
submitted at virtual time ``v`` with duration ``d`` finishes exactly when
``V`` reaches ``v + d`` — a constant, computed once at submit.  That turns
the hot path into:

* ``submit``: one O(log n) push onto the finish-order heap + O(1) incremental
  updates of the demand/activity sums (no per-burst timer rescheduling).
* completion: pop(s) from the finish heap, O(log n) each.
* exactly **one engine timer per device** — armed for the earliest finish —
  instead of one per resident burst, so the engine heap no longer bloats
  with lazily-cancelled handles under churn.
* ``active_demand`` / ``instantaneous_occupancy``: O(1) (maintained sums,
  not O(n) property scans).

The seed's O(n)-per-transition formulation is preserved verbatim in
``tests/property/reference_device.py`` as the differential oracle for this
model (``tests/property/test_device_churn.py``); the throughput
micro-benchmarks are in ``benchmarks/test_engine_speed.py``.
"""

from __future__ import annotations

import heapq
import typing as _t

from repro.gpu.kernels import KernelBurst
from repro.gpu.memory import MemoryLedger
from repro.gpu.metrics import GPUMetrics
from repro.gpu.specs import GPUSpec

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine, Handle
    from repro.sim.events import Event

#: Completion sweep tolerance, in dedicated-work seconds.  A burst whose
#: remaining virtual work is within ``_EPSILON`` of zero is complete; the
#: single constant replaces the seed's inconsistent ``1e-12`` (reassign path)
#: vs ``1e-9`` (timer path) thresholds.
_EPSILON = 1e-9


class BurstHandle:
    """Tracks one resident burst; ``done`` settles at completion.

    ``finish_v`` is the burst's completion coordinate on the device's virtual
    work clock — constant for the burst's whole residency.
    """

    __slots__ = ("burst", "done", "finish_v", "started_at")

    def __init__(self, burst: KernelBurst, done: "Event", now: float, finish_v: float):
        self.burst = burst
        self.done = done
        self.finish_v = finish_v
        self.started_at = now


class GPUDevice:
    """One physical GPU: executor + memory ledger + metrics."""

    def __init__(self, engine: "Engine", spec: GPUSpec, name: str = ""):
        spec.validate()
        self.engine = engine
        self.spec = spec
        self.name = name or spec.name
        self.memory = MemoryLedger(spec.usable_mb, self.name)
        self.metrics = GPUMetrics()
        self._active: dict[int, BurstHandle] = {}
        self._next_id = 0
        self._last_update = engine.now
        # Virtual work clock and its derived bookkeeping (see module docstring).
        self._virtual = 0.0
        self._finish_heap: list[tuple[float, int]] = []
        self._timer: "Handle | None" = None
        # Incrementally-maintained Σ sm_demand / Σ sm_activity of residents.
        self._demand_sum = 0.0
        self._activity_sum = 0.0
        #: Total dedicated-seconds of burst work completed (work conservation).
        self.completed_work = 0.0
        self.completed_bursts = 0

    # -- introspection ---------------------------------------------------
    @property
    def active_count(self) -> int:
        return len(self._active)

    @property
    def active_demand(self) -> float:
        """Σ SM demand (%) of resident bursts — O(1), maintained incrementally."""
        return self._demand_sum

    @property
    def current_speed(self) -> float:
        """The processor-sharing speed currently applied to every burst."""
        demand = self._demand_sum
        return 1.0 if demand <= 100.0 else 100.0 / demand

    @property
    def instantaneous_occupancy(self) -> float:
        """Fraction of SM capacity busy right now — O(1)."""
        return self._activity_sum * self.current_speed

    # -- execution ----------------------------------------------------------
    def submit(self, burst: KernelBurst) -> "Event":
        """Make ``burst`` resident; returns its completion event."""
        done = self.engine.event(f"{self.name}.burst.{self._next_id}")
        if burst.duration == 0.0:
            done.succeed(0.0)
            self.completed_bursts += 1
            return done
        self._advance_state()
        key = self._next_id
        self._next_id += 1
        handle = BurstHandle(burst, done, self.engine.now, self._virtual + burst.duration)
        self._active[key] = handle
        heapq.heappush(self._finish_heap, (handle.finish_v, key))
        self._demand_sum += burst.sm_demand
        self._activity_sum += burst.sm_activity
        self._sweep_and_rearm()
        return done

    def sync_metrics(self) -> None:
        """Fold the in-progress constant-state interval into the metrics."""
        self._advance_state()
        self._sweep_and_rearm(rearm_if_unchanged=False)

    # -- internals -------------------------------------------------------------
    def _advance_state(self) -> None:
        """Integrate metrics and advance the virtual clock for [last_update, now).

        This is the *single* state-advance per transition: callers advance
        once, then sweep completions once (the seed's timer path advanced and
        swept twice per completion).
        """
        now = self.engine.now
        if now < self._last_update:
            raise RuntimeError("clock went backwards")
        dt = now - self._last_update
        if dt > 0.0 and self._active:
            speed = self.current_speed
            self.metrics.integrate(
                self._last_update, now, len(self._active), self._activity_sum * speed
            )
            self._virtual += dt * speed
        elif dt > 0.0:
            self.metrics.integrate(self._last_update, now, 0, 0.0)
        self._last_update = now

    def _sweep_and_rearm(self, rearm_if_unchanged: bool = True) -> None:
        """Complete every burst whose virtual finish has been reached, then
        arm the single device timer for the earliest remaining finish.

        Finished bursts are swept *before* the timer is re-armed: several
        bursts can hit zero at the same instant, and the timer's ETA must
        reflect the post-completion active set's speed.

        ``rearm_if_unchanged=False`` (the ``sync_metrics`` path) keeps the
        armed timer when the sweep completed nothing: the active set and
        speed are then unchanged, so its absolute fire time is still exact —
        cancelling and re-pushing it would manufacture the very dead-handle
        churn this model removes.
        """
        heap = self._finish_heap
        finished = False
        while heap and heap[0][0] - self._virtual <= _EPSILON:
            _, key = heapq.heappop(heap)
            self._finish(key)
            finished = True
        if not rearm_if_unchanged and not finished and self._timer is not None:
            return
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if heap:
            eta = (heap[0][0] - self._virtual) / self.current_speed
            self._timer = self.engine.schedule(eta, self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        self._advance_state()
        heap = self._finish_heap
        if heap:
            # The timer was armed exactly for heap[0]; float rounding in
            # eta × speed can leave the virtual clock an ulp short of its
            # finish coordinate, so complete the armed target unconditionally
            # (guarantees progress regardless of the clock's magnitude).
            finish_v, key = heapq.heappop(heap)
            if finish_v > self._virtual:
                self._virtual = finish_v
            self._finish(key)
        self._sweep_and_rearm()

    def _finish(self, key: int) -> None:
        handle = self._active.pop(key)
        self._demand_sum -= handle.burst.sm_demand
        self._activity_sum -= handle.burst.sm_activity
        if not self._active:
            # Kill incremental float drift (and rebase the virtual clock) at
            # every idle point so a long simulation never loses precision.
            self._demand_sum = 0.0
            self._activity_sum = 0.0
            self._virtual = 0.0
            self._finish_heap.clear()
        self.completed_work += handle.burst.duration
        self.completed_bursts += 1
        busy = self.engine.now - handle.started_at
        if not handle.done.triggered:
            # The value is the measured wall-clock GPU residency, which is
            # what the hook library charges against the pod's time quota.
            handle.done.succeed(busy)
