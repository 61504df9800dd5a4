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

**Lazy windows.**  The rollover runs only while some row has
``Q_used > 0``.  A roll that finds every ``Q_used`` at 0 is an exact no-op:
``max(0, 0 − Q_limit)`` is 0, so no row changes, and ``_dispatch`` sees the
state its last call saw (request, release, update and deregister dispatch
themselves; ``register`` adds a row with no waiter, which the ready queue
skips; only ``charge`` moves ``Q_used``), so it grants nothing.  ``charge``
therefore arms the rollover, and a roll that leaves every ``Q_used`` at 0
disarms it.  The boundaries stay on the float chain the eager timer made:
a backend created at ``t0`` rolled at ``t0 + w``, then each roll re-armed
``w`` later, so re-arming repeats ``boundary += w`` until it passes ``now``
and every roll that does happen lands on the instant the eager one did.
("Passes" is strict: a charge runs in a process body, and a process body
never runs while a heap entry due at ``now`` is queued — see
:mod:`repro.sim.engine` — so the eager roll due at that instant had fired.)

**One window chain per engine instant.**  Backends created at one instant
with one window (every node of a cluster) share one :class:`_WindowChain`,
whose single timer rolls its armed backends in creation order.  Their eager
timers fired back to back in that order at every boundary: a roll's
dispatch only settles token events, whose waiting processes resume through
the zero-delay lane, so nothing entered the heap between them.  A timer per
backend would break this: a backend re-armed mid-window would roll after a
sibling that stayed armed, and when both rolls unblock waiters at the same
instant the granted processes would resume in swapped order.

A re-armed chain timer is scheduled at the arming charge, not at the
previous boundary, so its heap sequence is later than the eager timer's.
That can move it only past a heap entry due at exactly the same boundary
and scheduled after the previous boundary's roll but before the arming
charge.  Such an entry cannot call into a backend itself: token calls run
in process bodies, which wait for every heap entry due at ``now`` (the roll
included), so they run after the roll in both orders.  What is left is a
timer landing bit-exactly on the accumulated chain, scheduled within the
window before that boundary, and no timer is computed from the chain: the
fixed-period ones of at least a window (control tick, samplers) were
scheduled before that window opened and keep their place ahead of the roll;
every other timer (burst ends, host gaps, arrivals, transfers, migration
polls) is offset from the chain by drawn or measured times, so such a tie
would be a floating-point accident.  ``tests/property/test_backend_windows.py``
checks grants and quota readings against the eager chain.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import math
import typing as _t
import weakref

from repro.manager.adapter import SMAllocationAdapter
from repro.manager.queue import ready_queue_order
from repro.manager.tokens import TimeToken
from repro.sim.errors import SimulationError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine, Handle
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


class _WindowChain:
    """The quota-window timer of every backend created at one instant with
    one window (see the module docstring); armed while any of them is."""

    __slots__ = ("engine", "window", "boundary", "backends", "_handle", "__weakref__")

    def __init__(self, engine: "Engine", window: float):
        self.engine = engine
        self.window = window
        #: The next (or, while disarmed, a past) boundary on the eager chain.
        self.boundary = engine.now + window
        #: Member backends in creation order.
        self.backends: list[FaSTBackend] = []
        self._handle: Handle | None = None

    def arm(self) -> None:
        if self._handle is None:
            now = self.engine.now
            while self.boundary <= now:
                self.boundary += self.window
            self._handle = self.engine.schedule_at(self.boundary, self._roll)

    def _roll(self) -> None:
        # Decay, re-arm, then dispatch: the eager timers re-armed before
        # dispatching, and a dispatch only settles token events (resumed
        # through the lane), so no backend sees another's decay early.
        self._handle = None
        rolled = [backend for backend in self.backends if backend.armed]
        for backend in rolled:
            backend._decay()
        if any(backend.armed for backend in rolled):
            self.arm()
        for backend in rolled:
            backend._dispatch()


#: Per engine, the live window chains by (creation instant, window).  Both
#: levels are weak: a chain lives as long as its backends.
_CHAINS: "weakref.WeakKeyDictionary[Engine, weakref.WeakValueDictionary]" = (
    weakref.WeakKeyDictionary()
)


def _join_chain(backend: "FaSTBackend") -> _WindowChain:
    engine = backend.engine
    chains = _CHAINS.get(engine)
    if chains is None:
        chains = _CHAINS[engine] = weakref.WeakValueDictionary()
    key = (engine.now, backend.window)
    chain = chains.get(key)
    if chain is None:
        chain = chains[key] = _WindowChain(engine, backend.window)
    chain.backends.append(backend)
    return chain


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
        #: Some row has ``q_used > 0``: the window chain rolls this backend.
        self.armed = False
        self._chain = _join_chain(self)

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
        sm_partition = entry.sm_partition if sm_partition is None else sm_partition
        quota_request = entry.quota_request if quota_request is None else quota_request
        quota_limit = entry.quota_limit if quota_limit is None else quota_limit
        _validate(sm_partition, quota_request, quota_limit)
        entry.sm_partition = sm_partition
        entry.quota_request = quota_request
        entry.quota_limit = quota_limit
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
        if not 0 <= gpu_seconds < math.inf:
            raise BackendError(f"charge {gpu_seconds} is not a finite non-negative time")
        entry.q_used += gpu_seconds / self.window
        entry.total_gpu_seconds += gpu_seconds
        if entry.q_used > 0 and not self.armed:
            self.armed = True
            self._chain.arm()
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

    def _decay(self) -> None:
        """Window rollover, first half: decay used quotas (the chain then
        re-dispatches, unblocking pods); disarm once every row is at 0."""
        armed = False
        for entry in self.entries.values():
            # Carry overage beyond the limit into the next window so that
            # long bursts cannot beat the quota in the long run.
            entry.q_used = max(0.0, entry.q_used - entry.quota_limit)
            armed = armed or entry.q_used > 0
        self.armed = armed

    # -- introspection ----------------------------------------------------------
    def _entry(self, pod_id: str) -> PodEntry:
        try:
            return self.entries[pod_id]
        except KeyError:
            raise BackendError(f"pod {pod_id} is not registered") from None

    def table(self) -> list[PodEntry]:
        """The backend table, in registration order (for reports/tests)."""
        return sorted(self.entries.values(), key=lambda e: e.arrival_seq)


def _validate(sm_partition: float, quota_request: float, quota_limit: float) -> None:
    """A row's resources: partition in (0, 100], 0 < request <= limit <= 1."""
    if not 0 < sm_partition <= 100:
        raise BackendError(f"sm_partition {sm_partition} outside (0, 100]")
    if not 0 < quota_request <= quota_limit <= 1.0:
        raise BackendError(
            f"need 0 < quota_request ({quota_request}) <= quota_limit ({quota_limit}) <= 1"
        )
