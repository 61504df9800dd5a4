"""The eager-window FaST Backend, kept as a reference model.

This is the earlier formulation of :class:`repro.manager.backend.FaSTBackend`:
every backend rolls its own 100 ms quota window on a timer from creation to
the end of the run, whether or not any pod uses quota.  Row validation and
the token protocol are the production ones; only the window differs.  It is
the differential oracle of ``test_backend_windows.py``, which drives
identical call sequences through it and the production lazy-window backend
and asserts identical grants and quota readings.

It lives with the tests because nothing else uses it; it exists to pin down
semantics, not to be fast.
"""

from __future__ import annotations

import itertools
import math
import typing as _t

from repro.manager.adapter import SMAllocationAdapter
from repro.manager.backend import BackendError, PodEntry, _validate
from repro.manager.queue import ready_queue_order
from repro.manager.tokens import TimeToken

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine
    from repro.sim.events import Event


class EagerWindowBackend:
    """Per-GPU multi-token scheduler with an always-running window timer."""

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

    def register(
        self, pod_id: str, sm_partition: float, quota_request: float, quota_limit: float
    ) -> PodEntry:
        if pod_id in self.entries:
            raise BackendError(f"pod {pod_id} already registered with {self.name}")
        _validate(sm_partition, quota_request, quota_limit)
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
        entry = self._entry(pod_id)
        if entry.holding:
            raise BackendError(f"cannot re-provision {pod_id} while it holds a token")
        sm_partition = entry.sm_partition if sm_partition is None else sm_partition
        quota_request = entry.quota_request if quota_request is None else quota_request
        quota_limit = entry.quota_limit if quota_limit is None else quota_limit
        _validate(sm_partition, quota_request, quota_limit)
        entry.sm_partition = sm_partition
        entry.quota_request = quota_request
        entry.quota_limit = quota_limit
        self._dispatch()

    def request_token(self, pod_id: str) -> "Event":
        entry = self._entry(pod_id)
        event = self.engine.event(f"{self.name}.token.{pod_id}")
        entry.waiting.append(event)
        self._dispatch()
        return event

    def charge(self, pod_id: str, gpu_seconds: float) -> None:
        entry = self._entry(pod_id)
        if not 0 <= gpu_seconds < math.inf:
            raise BackendError(f"charge {gpu_seconds} is not a finite non-negative time")
        entry.q_used += gpu_seconds / self.window
        entry.total_gpu_seconds += gpu_seconds
        if entry.blocked and entry.token is not None:
            entry.token.invalidate()

    def release_token(self, pod_id: str) -> None:
        entry = self._entry(pod_id)
        if not entry.holding:
            return
        entry.holding = False
        if entry.token is not None:
            entry.token.invalidate()
            entry.token = None
        self.adapter.release(pod_id)
        self._dispatch()

    def _dispatch(self) -> None:
        for entry in ready_queue_order(self.entries.values()):
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
        for entry in self.entries.values():
            entry.q_used = max(0.0, entry.q_used - entry.quota_limit)
        self._window_handle = self.engine.schedule(self.window, self._roll_window)
        self._dispatch()

    def _entry(self, pod_id: str) -> PodEntry:
        try:
            return self.entries[pod_id]
        except KeyError:
            raise BackendError(f"pod {pod_id} is not registered") from None
