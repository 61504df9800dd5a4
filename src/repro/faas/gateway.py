"""The OpenFaaS-style gateway.

Responsibilities (paper Fig. 2):

* request intake and **least-loaded routing** across a function's ready
  replicas (requests park in a pending queue while every replica is cold —
  no request is lost during scale-up);
* **warm-idle promotion**: pre-warmed (``WARM_IDLE``) replicas register in a
  per-function warm pool; the moment a request parks with no accepting
  replica, the gateway promotes a warm replica — the request is absorbed at
  the same simulation time instead of eating a cold start;
* **cold-wait attribution**: time a request spends parked because *no*
  replica was accepting is recorded as ``Request.cold_wait``, separately
  from ordinary replica-queue wait, so experiments can attribute pre-warming
  wins;
* completion bookkeeping into the :class:`~repro.faas.requests.RequestLog`;
* **RPS observation**: per-function arrival bins, from which the FaST
  Scheduler reads its predicted request loads (``R_j``).

When the engine's telemetry hub is enabled the gateway emits the request
lifecycle as structured events (``arrival``/``park``/``unpark``/
``promote_warm``/``swap_promote``/``reroute``/``complete``) from which
:mod:`repro.obs.spans` reconstructs per-request spans; every emission site
guards on ``hub.enabled`` so the disabled path builds no payloads.
"""

from __future__ import annotations

import collections
import math
import typing as _t

from repro.faas.function import FunctionRegistry
from repro.faas.requests import Request, RequestLog

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.faas.replica import FunctionReplica
    from repro.sim.engine import Engine


class Gateway:
    """Request router + RPS observer.

    ``promote_load_threshold`` drives backpressure promotion: when the
    least-loaded accepting replica already has this many requests
    outstanding, a warm spare (if any) is promoted alongside the routing —
    the flash-crowd absorber that makes pre-warming effective while
    replicas still exist (the pending-queue path only covers scale-from-zero).
    """

    def __init__(
        self,
        engine: "Engine",
        registry: FunctionRegistry,
        rps_bin_s: float = 1.0,
        promote_load_threshold: int = 3,
    ):
        if promote_load_threshold < 1:
            raise ValueError("promote_load_threshold must be >= 1")
        self.engine = engine
        self.registry = registry
        self.rps_bin_s = rps_bin_s
        self.promote_load_threshold = promote_load_threshold
        self.log = RequestLog()
        self._replicas: dict[str, list["FunctionReplica"]] = collections.defaultdict(list)
        self._pending: dict[str, collections.deque[Request]] = collections.defaultdict(
            collections.deque
        )
        #: WARM_IDLE replicas available for promotion, FIFO per function.
        self._warm: dict[str, list["FunctionReplica"]] = collections.defaultdict(list)
        #: promotions triggered but not yet serving (replica_ready pending).
        self._promoting: dict[str, int] = collections.defaultdict(int)
        self.promotions = 0
        #: Functions with a warm or demand-swap promotion since the scheduler
        #: last gap-checked them: it treats each as a scale-up for cooldown
        #: purposes (no immediate drain-back) and takes the function out.
        self.promoted: set[str] = set()
        #: memory tier: the replica-lifecycle API (None when disabled).
        #: When set, a request parking with no warm spare triggers promotion
        #: of a HOST_RESIDENT pod — scale-from-host instead of a cold start.
        self.lifecycle = None
        #: demand-driven swap promotions in flight, per function.
        self._swapping: dict[str, int] = collections.defaultdict(int)
        self.swap_promotions = 0
        self._rr: dict[str, int] = collections.defaultdict(int)
        #: per-function arrival counts in fixed wall-clock bins (RPS signal).
        self._arrival_bins: dict[str, collections.Counter] = collections.defaultdict(
            collections.Counter
        )
        #: most recent arrival time per function (keep-alive signal).
        self.last_arrival: dict[str, float] = {}
        self.submitted: dict[str, int] = collections.defaultdict(int)
        #: Functions with an arrival, a replica/parked-pod change or a warm
        #: promotion since the autoscaler last looked (it drains the set to
        #: wake sleepers).
        self.touched: set[str] = set()

    # -- replica membership (called by the FaSTPod controller / replicas) -------
    def replica_ready(self, replica: "FunctionReplica") -> None:
        name = replica.function.name
        if replica.consume_promotion():
            self._promoting[name] = max(0, self._promoting[name] - 1)
        if replica.consume_swap():
            self._swapping[name] = max(0, self._swapping[name] - 1)
        if replica not in self._replicas[name]:
            self._replicas[name].append(replica)
        self._drain_pending(name)

    def replica_gone(self, replica: "FunctionReplica") -> None:
        name = replica.function.name
        try:
            self._replicas[name].remove(replica)
        except ValueError:
            pass
        try:
            self._warm[name].remove(replica)
        except ValueError:
            pass
        if replica.consume_promotion():
            # Promoted but evicted before it ever became ready.
            self._promoting[name] = max(0, self._promoting[name] - 1)
        if replica.consume_swap():
            self._swapping[name] = max(0, self._swapping[name] - 1)

    def replicas(self, function: str) -> list["FunctionReplica"]:
        return list(self._replicas[function])

    # -- warm pool (WARM_IDLE replicas awaiting promotion) ----------------------
    def replica_warm(self, replica: "FunctionReplica") -> None:
        """Register a replica that finished its cold start in WARM_IDLE."""
        name = replica.function.name
        if replica not in self._warm[name]:
            self._warm[name].append(replica)
        # A request may already be parked (it raced the pre-warm): promote.
        self._promote_warm(name)

    def warm_replicas(self, function: str) -> list["FunctionReplica"]:
        return list(self._warm[function])

    def claim_warm(self, function: str) -> "FunctionReplica | None":
        """Promote and return the oldest warm replica (None if pool empty).

        Used by the scheduler's scale-up path: promoting an already-warm pod
        is strictly cheaper than placing and cold-starting a new one.
        """
        warm = self._warm[function]
        if not warm:
            return None
        return self._promote(warm[0], "claim")

    def claim_specific(self, replica: "FunctionReplica") -> bool:
        """Promote one *specific* warm replica (the migration handoff).

        Unlike :meth:`claim_warm` (oldest-first), the caller names the
        replica — a migration destination must be the pod that takes over,
        not whichever spare happens to head the pool.  Returns False when
        the replica is no longer in the warm pool (e.g. a parked request
        already claimed it), which the caller treats as "already serving".
        """
        if replica not in self._warm[replica.function.name]:
            return False
        self._promote(replica, "migrate")
        return True

    def _promote_warm(self, function: str) -> None:
        """Promote warm replicas to absorb parked requests (one per request)."""
        warm = self._warm[function]
        while warm and len(self._pending[function]) > self._promoting[function]:
            self._promote(warm[0], "parked")

    def _promote(self, replica: "FunctionReplica", trigger: str) -> "FunctionReplica":
        """Take ``replica`` off the warm pool and promote it: the one path
        every warm promotion goes through (counted and emitted here)."""
        name = replica.function.name
        self._warm[name].remove(replica)
        self._promoting[name] += 1
        self.promotions += 1
        self.promoted.add(name)
        self.touched.add(name)
        replica.promote()
        hub = self.engine.hub
        if hub.enabled:
            hub.emit(
                self.engine.now,
                "gateway",
                "promote_warm",
                name,
                trigger=trigger,
                replica=replica.replica_id,
            )
        return replica

    # -- intake & routing ----------------------------------------------------------
    def submit(self, function: str, done_event=None) -> Request:
        """Accept one request for ``function`` and route it."""
        if function not in self.registry:
            raise KeyError(f"unknown function {function!r}")
        now = self.engine.now
        request = Request(function=function, arrival=now, done_event=done_event)
        self.submitted[function] += 1
        self.touched.add(function)
        self.log.note_submitted()
        self._arrival_bins[function][math.floor(now / self.rps_bin_s)] += 1
        self.last_arrival[function] = now
        hub = self.engine.hub
        if hub.enabled:
            hub.emit(now, "gateway", "arrival", function, rid=request.request_id)
        self._route(request)
        return request

    def _route(self, request: Request) -> None:
        candidates = [r for r in self._replicas[request.function] if r.accepting]
        if not candidates:
            # Park: the wait from here until a replica accepts is
            # cold-start-attributable (no replica was accepting at all) —
            # or swap-attributable while a host promotion is in flight.
            request.parked_at = self.engine.now
            if self._swapping[request.function] > 0:
                request.swap_marked = True
            hub = self.engine.hub
            if hub.enabled:
                hub.emit(
                    self.engine.now,
                    "gateway",
                    "park",
                    request.function,
                    rid=request.request_id,
                    reason="swap" if request.swap_marked else "cold",
                )
            self._pending[request.function].append(request)
            self._promote_warm(request.function)
            self._promote_parked(request.function)
            return
        # Least-loaded; round-robin among ties for determinism without bias.
        min_load = min(r.load for r in candidates)
        tied = [r for r in candidates if r.load == min_load]
        index = self._rr[request.function] % len(tied)
        self._rr[request.function] += 1
        tied[index].enqueue(request)
        # Backpressure promotion: queueing has started — wake one warm spare
        # per routed request until the pressure clears.
        if min_load >= self.promote_load_threshold:
            self.claim_warm(request.function)

    def _promote_parked(self, function: str) -> None:
        """Swap HOST_RESIDENT pods in to absorb parked requests.

        The memory-tier analogue of :meth:`_promote_warm`, one tier down:
        when parked demand exceeds the promotions already in flight (warm
        *and* swap), the lifecycle readmits a parked pod whose "cold start"
        is a fabric swap-in.  Every request parked while the swap is in
        flight is marked so its wait drains into ``swap_wait``.
        """
        if self.lifecycle is None:
            return
        pending = self._pending[function]
        in_flight = self._promoting[function] + self._swapping[function]
        hub = self.engine.hub
        while (
            len(pending) > in_flight and self.lifecycle.promote(function, demand=True) is not None
        ):
            self._swapping[function] += 1
            self.swap_promotions += 1
            self.promoted.add(function)
            in_flight += 1
            for request in pending:
                request.swap_marked = True
            if hub.enabled:
                hub.emit(
                    self.engine.now,
                    "gateway",
                    "swap_promote",
                    function,
                    parked=len(pending),
                )

    def _drain_pending(self, function: str) -> None:
        pending = self._pending[function]
        hub = self.engine.hub
        while pending and any(r.accepting for r in self._replicas[function]):
            request = pending.popleft()
            if request.parked_at is not None:
                waited = self.engine.now - request.parked_at
                attributed = "swap" if request.swap_marked else "cold"
                if request.swap_marked:
                    request.swap_wait += waited
                    request.swap_marked = False
                else:
                    request.cold_wait += waited
                request.parked_at = None
                if hub.enabled:
                    hub.emit(
                        self.engine.now,
                        "gateway",
                        "unpark",
                        function,
                        rid=request.request_id,
                        waited_s=waited,
                        attributed=attributed,
                    )
            self._route(request)

    def reroute(self, requests: _t.Iterable[Request]) -> None:
        """Re-admit requests a draining/killed replica could not finish."""
        hub = self.engine.hub
        for request in requests:
            request.start = None
            request.replica_id = None
            if hub.enabled:
                hub.emit(
                    self.engine.now,
                    "gateway",
                    "reroute",
                    request.function,
                    rid=request.request_id,
                )
            self._route(request)

    def complete(self, request: Request) -> None:
        hub = self.engine.hub
        if hub.enabled:
            hub.emit(
                self.engine.now,
                "gateway",
                "complete",
                request.function,
                rid=request.request_id,
                arrival=request.arrival,
                start=request.start,
                replica=request.replica_id,
                cold_wait_s=request.cold_wait,
                swap_wait_s=request.swap_wait,
            )
        self.log.note_completed(request)
        if request.done_event is not None and not request.done_event.triggered:
            request.done_event.succeed(request)

    # -- RPS signal for the scheduler ------------------------------------------------
    def observed_rps(self, function: str, window_s: float = 5.0) -> float:
        """Mean arrival rate over the trailing ``window_s`` seconds."""
        now = self.engine.now
        bins = self._arrival_bins[function]
        if not bins:
            return 0.0
        current = math.floor(now / self.rps_bin_s)
        n_bins = max(1, int(round(window_s / self.rps_bin_s)))
        total = sum(bins.get(current - i, 0) for i in range(n_bins))
        return total / (n_bins * self.rps_bin_s)

    def predicted_rps(self, function: str, window_s: float = 5.0) -> float:
        """Load prediction the scheduler scales against.

        A deliberately simple predictor (the paper predicts "based on
        request loads from the gateway" without further detail): the max of
        the trailing-window mean, the last complete bin, and the current
        partial bin extrapolated once ≥30% elapsed — so load steps are caught
        within about one bin while troughs decay smoothly.
        """
        now = self.engine.now
        bins = self._arrival_bins[function]
        if not bins:
            return 0.0
        current = math.floor(now / self.rps_bin_s)
        last_bin = bins.get(current - 1, 0) / self.rps_bin_s
        prediction = max(self.observed_rps(function, window_s), last_bin)
        elapsed = now - current * self.rps_bin_s
        if elapsed >= 0.3 * self.rps_bin_s:
            prediction = max(prediction, bins.get(current, 0) / elapsed)
        return prediction

    def arrival_bins(self, function: str) -> _t.Mapping[int, int]:
        """Per-bin arrival counts (bin index = floor(t / rps_bin_s)) — the
        observation stream the predictive forecasters consume."""
        return self._arrival_bins[function]

    def pending_count(self, function: str) -> int:
        return len(self._pending[function])

    @property
    def pending_total(self) -> int:
        return sum(len(q) for q in self._pending.values())
