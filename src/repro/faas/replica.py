"""The function-instance runtime (what runs inside a FaSTPod's container).

Lifecycle: cold start (framework boot + model load — via the Model Store Lib
when sharing is enabled), then an infinite serve loop: take the next request
from the replica queue, generate its kernel-burst plan at the pod's SM
partition, and execute it through the (token-gated or direct) hook library.

Scale-down uses drain semantics: the replica stops accepting work, requeues
anything still waiting, finishes the in-flight request, and only then is the
pod evicted — requests are never dropped by scaling.
"""

from __future__ import annotations

import typing as _t

from repro.faas.function import FunctionSpec
from repro.faas.requests import Request
from repro.k8s.objects import Pod, PodPhase
from repro.sim.errors import Interrupt
from repro.sim.resources import Store

if _t.TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.faas.gateway import Gateway
    from repro.k8s.node import Container
    from repro.sim.engine import Engine


class FunctionReplica:
    """One serving instance of a function."""

    def __init__(
        self,
        engine: "Engine",
        pod: Pod,
        container: Container,
        function: FunctionSpec,
        gateway: "Gateway",
        rng: "np.random.Generator | None" = None,
        warm_idle: bool = False,
        swap_in_mb: float | None = None,
        swap_fabric=None,
    ):
        self.engine = engine
        self.pod = pod
        self.container = container
        self.function = function
        self.gateway = gateway
        self.rng = rng
        self.queue: Store = Store(engine, name=f"{pod.pod_id}.queue")
        self.ready = False
        self.draining = False
        self.in_flight: Request | None = None
        self.started_at: float | None = None
        self.requests_served = 0
        #: pre-warm mode: after the cold start the replica parks in
        #: ``WARM_IDLE`` (memory held, zero quota) until :meth:`promote`.
        self._warm_start = warm_idle
        self.warm_idle = False
        self.promoted_at: float | None = None
        self._promotion_counted = False
        self._promote_event = None
        #: memory-tier promotion: the "cold start" is a host→GPU weight
        #: transfer across the node's fabric instead of a full model load.
        self._swap_in_mb = swap_in_mb
        self._swap_fabric = swap_fabric
        #: True once this replica came up via a fabric swap-in (the gateway
        #: uses it to attribute waits to swap instead of cold start).
        self.swapped_in = False
        #: set by the lifecycle on demand-driven promotions (a request was
        #: already parked); such replicas settle the gateway's in-flight
        #: swap counter when they become ready (or die trying).
        self.swap_demand = False
        self._swap_counted = False
        self._proc = engine.process(self._serve(), name=f"replica:{pod.pod_id}")

    # -- queue/load introspection (used by gateway routing) -----------------------
    @property
    def replica_id(self) -> str:
        return self.pod.pod_id

    @property
    def load(self) -> int:
        """Outstanding work: queued + in-flight."""
        return len(self.queue) + (1 if self.in_flight is not None else 0)

    @property
    def partition(self) -> float:
        """The SM partition plans are generated for (100 when unmanaged)."""
        return self.container.hook.ctx.sm_demand

    @property
    def accepting(self) -> bool:
        return self.ready and not self.draining

    @property
    def warm_pending(self) -> bool:
        """True for a pre-warmed replica from creation until promotion —
        including the cold-start phase before it parks in WARM_IDLE.  Such a
        replica contributes no serving capacity."""
        return self._warm_start and self.promoted_at is None

    def enqueue(self, request: Request) -> None:
        if not self.accepting:
            raise RuntimeError(f"replica {self.replica_id} is not accepting requests")
        self.queue.put(request)

    # -- pre-warm promotion ------------------------------------------------------
    def promote(self) -> None:
        """Wake a ``WARM_IDLE`` replica into serving.

        The serve loop resumes at the current simulation time: the pod
        transitions to ``RUNNING`` and registers with the gateway, so a
        pending request is absorbed without paying any cold start.
        """
        if not self.warm_idle or self._promote_event is None:
            raise RuntimeError(f"replica {self.replica_id} is not warm-idle")
        if not self._promote_event.triggered:
            self._promote_event.succeed(self)

    def consume_promotion(self) -> bool:
        """True exactly once for a replica that went through a promotion
        (gateway bookkeeping of in-flight promotions)."""
        if self.promoted_at is not None and not self._promotion_counted:
            self._promotion_counted = True
            return True
        return False

    def consume_swap(self) -> bool:
        """True exactly once for a demand-driven swap promotion settling
        (gateway bookkeeping of in-flight swap-ins)."""
        if self.swap_demand and not self._swap_counted:
            self._swap_counted = True
            return True
        return False

    # -- serve loop -----------------------------------------------------------------
    def _serve(self):
        model = self.function.model
        try:
            # Cold start: a fabric swap-in for a pod promoted from
            # HOST_RESIDENT, shared GET/STORE via the storage server, or a
            # full local weight load when model sharing is off.
            if self._swap_fabric is not None and self._swap_in_mb is not None:
                yield self._swap_fabric.transfer(self._swap_in_mb)
                self.swapped_in = True
            elif self.container.store_lib is not None:
                yield from self.container.store_lib.load_shared(model)
            else:
                yield model.load_time_s
            if self._warm_start:
                # Park warm: model resident, memory held, no gateway
                # registration and no token traffic until promotion.
                self.pod.transition(PodPhase.WARM_IDLE)
                self.warm_idle = True
                self._promote_event = self.engine.event(f"promote:{self.pod.pod_id}")
                self.gateway.replica_warm(self)
                yield self._promote_event
                self.warm_idle = False
                self.promoted_at = self.engine.now
            self.pod.transition(PodPhase.RUNNING)
            self.ready = True
            self.started_at = self.engine.now
            hub = self.engine.hub
            if hub.enabled:
                hub.emit(
                    self.engine.now,
                    "replica",
                    "ready",
                    self.function.name,
                    replica=self.replica_id,
                    swapped_in=self.swapped_in,
                    promoted=self.promoted_at is not None,
                )
            self.gateway.replica_ready(self)
            while True:
                request: Request = yield self.queue.get()
                self.in_flight = request
                request.start = self.engine.now
                request.replica_id = self.replica_id
                if hub.enabled:
                    hub.emit(
                        self.engine.now,
                        "replica",
                        "service_start",
                        request.function,
                        rid=request.request_id,
                        replica=self.replica_id,
                    )
                plan = model.make_plan(self.partition, self.rng, self.container.speed_factor)
                yield from self.container.hook.run_plan(plan)
                request.end = self.engine.now
                self.in_flight = None
                self.requests_served += 1
                self.gateway.complete(request)
        except Interrupt:
            # Hard stop (eviction): release any token and requeue what we hold.
            self.warm_idle = False
            self.container.hook.release()
            leftovers = self.queue.drain()
            if self.in_flight is not None:
                leftovers.insert(0, self.in_flight)
                self.in_flight = None
            self.ready = False
            self.gateway.reroute(leftovers)

    # -- scale-down -------------------------------------------------------------------
    def drain_and_stop(self):
        """(generator) Graceful termination: reroute queue, finish in-flight."""
        self.draining = True
        self.gateway.replica_gone(self)
        self.gateway.reroute(self.queue.drain())
        while self.in_flight is not None:
            yield 0.005
        self.ready = False
        if self._proc.is_alive:
            self._proc.interrupt("scale-down")
            yield 0.0  # let the interrupt unwind

    def kill(self) -> None:
        """Immediate termination (tests / failure injection)."""
        self.draining = True
        self.gateway.replica_gone(self)
        if self._proc.is_alive:
            self._proc.interrupt("kill")
