"""The FaST Backend: resource table + multi-token scheduler (paper §3.3.2).

The backend keeps, per registered pod, the temporal/spatial configuration
(``Q_request``, ``Q_limit``, ``S_SMs``) synchronised from the FaSTPod
controller, plus the quota used in the current window (``Q_used``).  Token
dispatch follows the paper's three steps:

1. **Filtering** — compute ``Q_miss = Q_request − Q_used`` and
   ``Q_remain = Q_limit − Q_used``; pods with ``Q_remain ≤ 0`` are blocked
   until the next time window.
2. **Candidate enqueueing** — ready pods are ordered by descending
   ``Q_miss`` (:func:`repro.manager.queue.ready_queue_order`).
3. **Token dispatching** — grant tokens to queue-head pods while the SM
   Allocation Adapter keeps ``S + S_running ≤ 100%``; stop at the first pod
   that does not fit.

Because CUDA kernels are not preemptible, a burst may overrun its remaining
quota; the overage is carried into the next window (``Q_used`` is reduced by
the window capacity rather than zeroed), keeping long-run usage within
``Q_limit`` even for bursts longer than a window.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import typing as _t

from repro.manager.adapter import SMAllocationAdapter
from repro.manager.queue import ready_queue_order
from repro.manager.tokens import TimeToken
from repro.sim.errors import SimulationError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine
    from repro.sim.events import Event


class BackendError(SimulationError):
    """Invalid backend operation (double registration, unknown pod, ...)."""


@dataclasses.dataclass(slots=True)
class PodEntry:
    """One row of the FaST Backend table."""

    pod_id: str
    sm_partition: float
    quota_request: float
    quota_limit: float
    arrival_seq: int
    q_used: float = 0.0
    holding: bool = False
    token: TimeToken | None = None
    waiting: "collections.deque[Event]" = dataclasses.field(default_factory=collections.deque)
    # -- lifetime accounting (diagnostics / tests) --
    total_gpu_seconds: float = 0.0
    tokens_granted: int = 0

    @property
    def q_miss(self) -> float:
        return self.quota_request - self.q_used

    @property
    def q_remain(self) -> float:
        return self.quota_limit - self.q_used

    @property
    def blocked(self) -> bool:
        """Exceeded the maximum window quota: wait for the next window.

        A pod with ``quota_limit = 1.0`` has no temporal restriction at all,
        so it never blocks — this avoids charge/rollover ordering races at
        window boundaries costing an unrestricted pod a burst per window.
        """
        if self.quota_limit >= 1.0 - 1e-9:
            return False
        return self.q_remain <= 1e-12


class FaSTBackend:
    """Per-GPU multi-token scheduler.

    ``window`` is the quota accounting period in seconds.  The paper's
    walkthrough uses 1 s; like Gemini we default to 100 ms so that latency
    SLOs in the tens of milliseconds remain reachable under partial quotas.
    """

    def __init__(self, engine: "Engine", name: str = "fast-backend", window: float = 0.1):
        if window <= 0:
            raise ValueError("window must be positive")
        self.engine = engine
        self.name = name
        self.window = window
        self.adapter = SMAllocationAdapter()
        self.entries: dict[str, PodEntry] = {}
        self._arrivals = itertools.count()
        self._window_handle = engine.schedule(window, self._roll_window)

    # -- registration (synced from the FaSTPod controller) --------------------
    def register(
        self,
        pod_id: str,
        sm_partition: float,
        quota_request: float,
        quota_limit: float,
    ) -> PodEntry:
        """Add a pod row; quotas are fractions of a window in (0, 1]."""
        if pod_id in self.entries:
            raise BackendError(f"pod {pod_id} already registered with {self.name}")
        if not 0 < sm_partition <= 100:
            raise BackendError(f"sm_partition {sm_partition} outside (0, 100]")
        if not 0 < quota_request <= quota_limit <= 1.0:
            raise BackendError(
                f"need 0 < quota_request ({quota_request}) <= "
                f"quota_limit ({quota_limit}) <= 1"
            )
        entry = PodEntry(
            pod_id=pod_id,
            sm_partition=sm_partition,
            quota_request=quota_request,
            quota_limit=quota_limit,
            arrival_seq=next(self._arrivals),
        )
        self.entries[pod_id] = entry
        return entry

    def deregister(self, pod_id: str) -> None:
        """Remove a pod row, failing any waiting token requests."""
        entry = self.entries.pop(pod_id, None)
        if entry is None:
            raise BackendError(f"pod {pod_id} is not registered")
        if entry.holding:
            self.adapter.release(pod_id)
            if entry.token is not None:
                entry.token.invalidate()
        while entry.waiting:
            waiter = entry.waiting.popleft()
            if not waiter.triggered:
                waiter.fail(BackendError(f"pod {pod_id} deregistered"))
        self._dispatch()

    def update_quota(
        self,
        pod_id: str,
        sm_partition: float | None = None,
        quota_request: float | None = None,
        quota_limit: float | None = None,
    ) -> None:
        """Resource re-sync from the controller (scale events re-provision)."""
        entry = self._entry(pod_id)
        if entry.holding:
            raise BackendError(f"cannot re-provision {pod_id} while it holds a token")
        if sm_partition is not None:
            entry.sm_partition = sm_partition
        if quota_request is not None:
            entry.quota_request = quota_request
        if quota_limit is not None:
            entry.quota_limit = quota_limit
        if not 0 < entry.quota_request <= entry.quota_limit <= 1.0:
            raise BackendError("inconsistent quotas after update")
        self._dispatch()

    # -- token protocol (called by the hook library) -----------------------------
    def request_token(self, pod_id: str) -> "Event":
        """Ask for a time token; the event succeeds with a :class:`TimeToken`."""
        entry = self._entry(pod_id)
        event = self.engine.event(f"{self.name}.token.{pod_id}")
        entry.waiting.append(event)
        self._dispatch()
        return event

    def charge(self, pod_id: str, gpu_seconds: float) -> None:
        """Report measured GPU residency of a completed burst.

        Called at each CUDA sync point (the Gemini timing-event mechanism).
        If the charge exhausts the pod's window limit, its token is
        invalidated so the hook returns it before the next burst.
        """
        entry = self._entry(pod_id)
        if gpu_seconds < 0:
            raise BackendError(f"negative charge {gpu_seconds}")
        entry.q_used += gpu_seconds / self.window
        entry.total_gpu_seconds += gpu_seconds
        if entry.blocked and entry.token is not None:
            entry.token.invalidate()

    def release_token(self, pod_id: str) -> None:
        """Return the pod's token (request finished or token invalidated)."""
        entry = self._entry(pod_id)
        if not entry.holding:
            return
        entry.holding = False
        if entry.token is not None:
            entry.token.invalidate()
            entry.token = None
        self.adapter.release(pod_id)
        self._dispatch()

    # -- scheduler core -----------------------------------------------------------
    def _dispatch(self) -> None:
        """Grant tokens to queue-head pods while SM capacity allows."""
        for entry in ready_queue_order(self.entries.values()):
            # Stop at the first head pod that does not fit — the paper's
            # adapter "continuously returns tokens for the head pods in the
            # queue until it encounters S_SMs + S_running > 100%".
            if not self.adapter.fits(entry.sm_partition):
                break
            self._grant(entry)

    def _grant(self, entry: PodEntry) -> None:
        while entry.waiting:
            waiter = entry.waiting.popleft()
            if not waiter.triggered:
                self.adapter.acquire(entry.pod_id, entry.sm_partition)
                entry.holding = True
                entry.tokens_granted += 1
                token = TimeToken(pod_id=entry.pod_id, sm_partition=entry.sm_partition)
                entry.token = token
                waiter.succeed(token)
                return

    def _roll_window(self) -> None:
        """Window rollover: decay used quotas, unblock pods, re-dispatch."""
        for entry in self.entries.values():
            # Carry overage beyond the limit into the next window so that
            # long bursts cannot beat the quota in the long run.
            entry.q_used = max(0.0, entry.q_used - entry.quota_limit)
        self._window_handle = self.engine.schedule(self.window, self._roll_window)
        self._dispatch()

    # -- introspection ----------------------------------------------------------
    def _entry(self, pod_id: str) -> PodEntry:
        try:
            return self.entries[pod_id]
        except KeyError:
            raise BackendError(f"pod {pod_id} is not registered") from None

    def table(self) -> list[PodEntry]:
        """The backend table, in registration order (for reports/tests)."""
        return sorted(self.entries.values(), key=lambda e: e.arrival_seq)

    def stop(self) -> None:
        """Cancel the window timer (end of simulation teardown)."""
        self._window_handle.cancel()
