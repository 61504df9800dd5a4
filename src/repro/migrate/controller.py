"""The live-migration primitive (make-before-break pod relocation).

One migration moves a bound rectangle to another GPU without dropping a
single request:

1. **Pre-warm the destination** — admit a new pod of the same spec on the
   destination node and bind its rectangle *while the source keeps serving*.
   The destination replica comes up ``WARM_IDLE`` and its "cold start" is a
   host→GPU transfer of the model weights across the destination node's
   fabric (weights are immutable and host-retained from load time — the
   same Torpor/FaaSwap rationale the memory tier uses), so the migration
   cost is the already-modeled swap profile at the fabric's current load.
2. **Hand off** — once the destination parks warm (or was already promoted
   by a parked request), the gateway promotes it; new arrivals route there.
3. **Drain and release the source** — the source pod, marked ``MIGRATING``
   since step 1, drains gracefully: queued requests reroute through the
   gateway, the in-flight request completes, then the pod is evicted and
   its rectangle unbound.  The source rectangle is only released *after*
   the drain (never early), so cluster capacity is never over-committed and
   never double-counted mid-migration.

If the destination dies before taking over, the migration aborts: a serving
source transitions ``MIGRATING -> RUNNING`` and keeps serving; a warm-idle
source is retired instead (its replacement spare failed, and waking a
parked replica out of an aborted migration would race its promotion event).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.k8s.objects import PodPhase
from repro.scheduler.mra import NoFitError
from repro.scheduler.rectangles import Rect

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.faas.gateway import Gateway
    from repro.faas.replica import FunctionReplica
    from repro.k8s.cluster import Cluster
    from repro.k8s.fastpod import FaSTPodController
    from repro.scheduler.mra import MaximalRectanglesScheduler
    from repro.sim.engine import Engine
    from repro.sim.process import Process

#: Poll interval while waiting for the destination replica's swap-in.
_POLL_S = 0.01


@dataclasses.dataclass(slots=True)
class MigrationRecord:
    """One migration's bookkeeping (kept for reports and tests)."""

    function: str
    src_pod: str
    dst_pod: str
    src_node: str
    dst_node: str
    started_at: float
    estimate_s: float
    finished_at: float | None = None
    outcome: str = "active"  # active | completed | aborted


class MigrationController:
    """Executes live migrations over the platform's existing layers."""

    def __init__(
        self,
        engine: "Engine",
        cluster: "Cluster",
        gateway: "Gateway",
        controllers: _t.Mapping[str, "FaSTPodController"],
        placement: "MaximalRectanglesScheduler",
    ):
        self.engine = engine
        self.cluster = cluster
        self.gateway = gateway
        self.controllers = controllers
        self.placement = placement
        self.started = 0
        self.completed = 0
        self.aborted = 0
        #: source pod_id -> record, for every migration still in flight.
        self.active: dict[str, MigrationRecord] = {}
        self.records: list[MigrationRecord] = []

    # -- introspection -----------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return len(self.active)

    def migratable(self, pod_id: str) -> bool:
        """Whether ``pod_id`` is a valid migration source right now."""
        pod = self.cluster.pods.get(pod_id)
        if pod is None or pod.phase not in (PodPhase.RUNNING, PodPhase.WARM_IDLE):
            return False
        if pod_id in self.active:
            return False
        controller = self.controllers.get(pod.spec.function_name)
        if controller is None:
            return False
        replica = controller.replicas.get(pod_id)
        return replica is not None and not replica.draining

    # -- the primitive -----------------------------------------------------------
    def migrate(
        self,
        function: str,
        pod_id: str,
        dst_node_name: str,
        target: Rect | None = None,
    ) -> "Process | None":
        """Start migrating ``pod_id`` to ``dst_node_name``; returns the
        (joinable) migration process, or None when the move is infeasible.

        The destination pod is admitted, its rectangle bound, and the source
        marked ``MIGRATING`` synchronously — before any simulated time
        passes — so a planning batch executed in one control tick sees every
        destination rectangle it reserved still free.
        """
        controller = self.controllers.get(function)
        if controller is None or not self.migratable(pod_id):
            return None
        replica = controller.replicas[pod_id]
        pod = replica.pod
        src_node_name = pod.node_name
        if src_node_name is None or dst_node_name == src_node_name:
            return None
        if self.placement.node_of(pod_id) != src_node_name:
            return None
        dst_node = self.cluster.node(dst_node_name)
        if not dst_node.fits_memory(pod):
            return None
        spec = pod.spec
        width, height = spec.quota_limit * 100.0, spec.sm_partition
        gpu = self.placement.gpus[dst_node_name]
        if target is None or target not in gpu.free:
            target = gpu.best_fit(width, height)
        if target is None:
            return None

        src_serving = not replica.warm_pending
        weights = controller.function.swap_weights_mb()
        # Make-before-break: destination first, source phase-flip last, all
        # in this same engine callback (admission failures leave the source
        # untouched).
        dst_replica = controller.scale_up(
            dst_node,
            spec.sm_partition,
            spec.quota_request,
            spec.quota_limit,
            warm=True,
            swap_in_mb=weights,
        )
        try:
            self.placement.bind_at(
                dst_replica.pod.pod_id, dst_node_name, width, height, target=target
            )
        except (NoFitError, ValueError):
            controller.scale_down(dst_replica.pod.pod_id, drain=False)
            return None
        pod.transition(PodPhase.MIGRATING)

        estimate = dst_node.fabric.estimate_s(weights)
        record = MigrationRecord(
            function=function,
            src_pod=pod_id,
            dst_pod=dst_replica.pod.pod_id,
            src_node=src_node_name,
            dst_node=dst_node_name,
            started_at=self.engine.now,
            estimate_s=estimate,
        )
        self.started += 1
        self.active[pod_id] = record
        self.records.append(record)
        hub = self.engine.hub
        if hub.enabled:
            hub.emit(
                self.engine.now,
                "migrate",
                "start",
                function,
                pod=pod_id,
                dst_pod=record.dst_pod,
                src_node=src_node_name,
                dst_node=dst_node_name,
                estimate_s=estimate,
            )
        return self.engine.process(
            self._finish(controller, record, dst_replica, src_serving),
            name=f"migrate:{pod_id}",
        )

    def _finish(
        self,
        controller: "FaSTPodController",
        record: MigrationRecord,
        dst_replica: "FunctionReplica",
        src_serving: bool,
    ):
        engine = self.engine
        # Wait out the destination's fabric swap-in.  It lands in WARM_IDLE
        # — or directly in RUNNING when a parked request claimed it first.
        while not (dst_replica.warm_idle or dst_replica.ready):
            if dst_replica.pod.phase in (PodPhase.TERMINATING, PodPhase.TERMINATED):
                yield from self._abort(controller, record, src_serving)
                return
            yield _POLL_S
        if src_serving and dst_replica.warm_idle:
            # Promote the specific destination (handing new arrivals over);
            # a False return means a parked request already claimed it.
            self.gateway.claim_specific(dst_replica)
        # Drain the source: queued requests reroute, in-flight completes,
        # then the pod walks MIGRATING -> TERMINATING -> TERMINATED and its
        # rectangle is released — only now, never before the drain.
        src_replica = controller.replicas.get(record.src_pod)
        if src_replica is not None and src_replica.pod.phase is PodPhase.MIGRATING:
            yield controller.scale_down(record.src_pod, drain=True)
        try:
            self.placement.unbind(record.src_pod)
        except KeyError:
            pass  # an autoscaler scale-down raced us and already released it
        self.completed += 1
        self.active.pop(record.src_pod, None)
        record.finished_at = engine.now
        record.outcome = "completed"
        hub = engine.hub
        if hub.enabled:
            hub.emit(
                engine.now,
                "migrate",
                "finish",
                record.function,
                pod=record.src_pod,
                dst_pod=record.dst_pod,
                src_node=record.src_node,
                dst_node=record.dst_node,
                duration_s=engine.now - record.started_at,
            )

    def _abort(
        self,
        controller: "FaSTPodController",
        record: MigrationRecord,
        src_serving: bool,
    ):
        """Destination died before taking over: keep (or retire) the source."""
        src_replica = controller.replicas.get(record.src_pod)
        if src_replica is not None and src_replica.pod.phase is PodPhase.MIGRATING:
            if src_serving:
                src_replica.pod.transition(PodPhase.RUNNING)
            else:
                # A warm-idle source cannot safely re-park (its promotion
                # event may have raced); retire it and let the autoscaler
                # re-provision the spare.
                yield controller.scale_down(record.src_pod, drain=True)
                try:
                    self.placement.unbind(record.src_pod)
                except KeyError:
                    pass
        self.aborted += 1
        self.active.pop(record.src_pod, None)
        record.finished_at = self.engine.now
        record.outcome = "aborted"
        hub = self.engine.hub
        if hub.enabled:
            hub.emit(
                self.engine.now,
                "migrate",
                "abort",
                record.function,
                pod=record.src_pod,
                dst_pod=record.dst_pod,
                src_node=record.src_node,
                dst_node=record.dst_node,
            )
        yield 0.0
