"""The FaST-Scheduler control loop (paper §3.4).

Every ``settings.interval`` seconds, for each awake function:

1. snapshot the capacity ``Σ T_{j,i}`` of its running and starting pods
   (throughputs from the profile database; WARM_IDLE pods contribute none),
   then run the predictive autoscaler tick (observe, plan, pre-warm/retire
   ``WARM_IDLE`` pods).  The reactive configuration is the *degenerate*
   predictive controller (no forecasters), so there is exactly one path;
2. compute the processing gap ``ΔRPS_j = R_j − Σ T_{j,i}`` from this tick's
   plan alone: ``R_j`` is the reactive gateway signal blended with the
   view's forecast (× a small SLO-headroom factor), and the floor is the
   plan's (the function's own ``min_replicas`` unless the plan lowers it).
   Exact, because no on-tick action changes a serving set;
3. run the Heuristic Scaling Algorithm;
4. apply the plan: a scale-up first *promotes* a warm pod if one is parked
   (no cold start, no new rectangle), then swaps a host-resident one in;
   otherwise it is placed by the Maximal Rectangles Algorithm (w = quota·100,
   h = SM partition) subject to node GPU-memory feasibility, then handed to
   the FaSTPod controller; scale-downs drain their pods and release their
   rectangles.

The scheduler is built with everything it ticks: its settings (an
:class:`~repro.scenario.spec.AutoscalerSpec`, the one home of every
control-plane default and its validation), the predictive layer it
constructs from ``policy`` and ``forecasters``, the memory tier's
``lifecycle`` and the background ``defragmenter`` (each ``None`` when
disabled).

A short scale-down cooldown after any scale-up prevents flapping on noisy
predictions (the paper leaves this operational detail unspecified).  A
gateway promotion (warm or demand swap) counts as a scale-up at the next
tick that gap-checks its function (``Gateway.promoted``).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.k8s.fastpod import FaSTPodController
from repro.profiler.database import ProfileDatabase
from repro.scheduler.autoscale import (
    HeuristicScaler,
    RunningPod,
    ScaleDownAction,
    ScaleUpAction,
)
from repro.scheduler.mra import MaximalRectanglesScheduler, NoFitError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.autoscaler.forecast import Forecaster
    from repro.autoscaler.policy import PreWarmPolicy
    from repro.faas.function import FunctionSpec
    from repro.faas.gateway import Gateway
    from repro.k8s.cluster import Cluster
    from repro.memtier.lifecycle import ReplicaLifecycle
    from repro.migrate.defrag import Defragmenter
    from repro.scenario.spec import AutoscalerSpec
    from repro.sim.engine import Engine

#: Scale-downs applied per function and tick: draining several pods at once
#: dumps their queues onto the survivors and spikes the tail latency.
MAX_DOWN_PER_TICK = 1


def memory_probe(cluster: "Cluster", function: "FunctionSpec") -> _t.Callable[[str], bool]:
    """Feasibility filter: does the node have GPU memory for one more pod?"""
    mem = function.pod_gpu_mem_mb()

    def allowed(node_name: str) -> bool:
        node = cluster.node(node_name)
        extra = 0.0
        if function.use_model_sharing:
            if function.model.name not in node.model_storage.stored_models():
                extra = function.model.memory.server_mb
        return node.device.memory.can_allocate(mem + extra)

    return allowed


def place(
    cluster: "Cluster",
    placement: MaximalRectanglesScheduler,
    controller: FaSTPodController,
    sm_partition: float,
    quota_request: float,
    quota_limit: float,
    warm: bool = False,
    used_nodes_only: bool = False,
):
    """:func:`place_first` of one configuration at ``[quota_request,
    quota_limit]``; returns the replica or raises :class:`NoFitError`.
    Manual deploys place through it."""
    replica = place_first(
        cluster,
        placement,
        controller,
        [(sm_partition, quota_limit)],
        warm=warm,
        used_nodes_only=used_nodes_only,
        quota_request=quota_request,
    )
    if replica is None:
        raise NoFitError(
            f"{controller.function.name}: no GPU fits (q={quota_limit}, s={sm_partition})"
        )
    return replica


def place_first(
    cluster: "Cluster",
    placement: MaximalRectanglesScheduler,
    controller: FaSTPodController,
    configs: _t.Sequence[tuple[float, float]],
    warm: bool = False,
    used_nodes_only: bool = False,
    quota_request: float | None = None,
):
    """Start one replica at the first of ``configs`` — ``(sm, quota)``
    pairs, best first — that fits; returns it, or None when none fits.

    The one fast-mode place path: memory probe → one MRA
    :meth:`~MaximalRectanglesScheduler.select_first` query over the shapes
    (w = quota·100, h = SM partition) → FaSTPod scale-up at
    ``[quota_request, quota]`` (``quota_request`` defaults to the quota,
    the profiling convention) → rectangle bind.

    ``warm=True`` creates a pre-warmed pod: the full rectangle is
    reserved (spatial cost explicit — promotion can never fail
    placement) and GPU memory is held, but the replica parks in
    ``WARM_IDLE`` and draws zero time quota until promoted.

    ``used_nodes_only=True`` confines placement to nodes already
    hosting pods — pre-warmed spares ride along on provisioned GPUs
    instead of powering up an idle one (their whole point is hiding
    latency, not growing the fleet).
    """
    fits_memory = memory_probe(cluster, controller.function)
    allowed = fits_memory
    if used_nodes_only:

        def allowed(node_name: str) -> bool:
            return bool(placement.gpus[node_name].placed) and fits_memory(node_name)

    shapes = [(quota * 100.0, sm) for sm, quota in configs]
    choice = placement.select_first(shapes, allowed=allowed)
    if choice is None:
        return None
    index, node_name, rect = choice
    sm, quota = configs[index]
    replica = controller.scale_up(
        cluster.node(node_name),
        sm,
        quota if quota_request is None else quota_request,
        quota,
        warm=warm,
    )
    placement.bind_at(replica.pod.pod_id, node_name, shapes[index][0], sm, target=rect)
    return replica


def release(
    placement: MaximalRectanglesScheduler,
    controller: FaSTPodController,
    pod_id: str,
    drain: bool = True,
) -> str | None:
    """Scale one replica down and free its rectangle; returns the node it
    was bound on (``None`` for a pinned pod that never fit, or a baseline
    mode's pod: neither holds a rectangle).

    The one fast-mode release path, shared by manual scale-downs, the
    scheduler's drains and the autoscaler's retirements.  The memory tier's
    park and the migrator's after-drain release keep their own timing.
    """
    node = placement.node_of(pod_id)
    controller.scale_down(pod_id, drain=drain)
    if node is not None:
        placement.unbind(pod_id)
    return node


@dataclasses.dataclass(slots=True)
class SchedulerEvent:
    """One applied scaling decision (for experiment timelines)."""

    time: float
    function: str
    action: str  # "up" | "promote" | "swapin" | "down" | "nofit"
    sm_partition: float
    quota: float
    node: str | None


class FaSTScheduler:
    """Auto-scaling + node-selection control loop."""

    def __init__(
        self,
        engine: "Engine",
        cluster: "Cluster",
        gateway: "Gateway",
        database: ProfileDatabase,
        controllers: _t.Mapping[str, FaSTPodController],
        placement: MaximalRectanglesScheduler,
        settings: "AutoscalerSpec",
        policy: "PreWarmPolicy | None" = None,
        forecasters: _t.Mapping[str, "Forecaster"] | None = None,
        lifecycle: "ReplicaLifecycle | None" = None,
        defragmenter: "Defragmenter | None" = None,
    ):
        if forecasters and policy is None:
            raise ValueError("forecasters need a pre-warm policy to read them")
        self.engine = engine
        self.cluster = cluster
        self.gateway = gateway
        self.database = database
        self.controllers = dict(controllers)
        self.settings = settings
        slo_map = {name: c.function.slo_ms for name, c in self.controllers.items()}
        self.scaler = HeuristicScaler.for_cluster(
            database, slo_map, settings.latency_headroom, cluster.speed_factors()
        )
        #: the platform's one MRA ledger, shared with manual deploys, the
        #: memory tier, and the migrator/defragmenter.
        self.placement = placement
        #: memory tier: the replica-lifecycle API (None when disabled).
        #: When set, a scale-up prefers swapping a HOST_RESIDENT pod back in
        #: over placing and cold-starting a fresh one, and the predictive
        #: layer's memtier actions drive it.
        self.lifecycle = lifecycle
        #: background defragmenter (:class:`repro.migrate.Defragmenter`),
        #: given when the scenario carries a ``cluster.defrag`` block;
        #: ticked at the end of every control tick.
        self.defragmenter = defragmenter
        # The reactive configuration is the *degenerate* predictive
        # controller (no forecasters, no policy) — one control path.
        from repro.autoscaler.controller import PredictiveAutoscaler

        self.predictive = PredictiveAutoscaler(self, policy, forecasters)
        self.events: list[SchedulerEvent] = []
        self.replica_series: list[tuple[float, dict[str, int]]] = []
        #: Live replica count per function, kept by the controllers' touch
        #: hook; each tick's series entry is a copy.
        self._replica_counts = {name: c.replica_count for name, c in self.controllers.items()}
        for controller in self.controllers.values():
            controller.replica_counts = self._replica_counts
        self._last_scale_up: dict[str, float] = {}
        #: This tick's serving pods and capacity per awake function.
        self.running: dict[str, list[RunningPod]] = {}
        self.capacity: dict[str, float] = {}
        self._handle = None
        self._running = False

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            raise RuntimeError("scheduler already started")
        self._running = True
        self._handle = self.engine.schedule(self.settings.interval, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._handle is not None:
            self._handle.cancel()

    # -- placement -------------------------------------------------------------
    def place_pod(
        self,
        controller: FaSTPodController,
        configs: _t.Sequence[tuple[float, float]],
        warm: bool = False,
        used_nodes_only: bool = False,
    ):
        """:func:`place_first` into the shared ledger: a replica at the
        first of ``configs`` — ``(sm, quota)`` pairs, best first, each
        deployed at ``[quota, quota]`` — that fits, or None.  The tick's
        scale-ups and pre-warms and a scenario's initial pods place through
        it."""
        return place_first(
            self.cluster,
            self.placement,
            controller,
            configs,
            warm=warm,
            used_nodes_only=used_nodes_only,
        )

    def _note(
        self, action: str, function: str, sm: float, quota: float, node: str | None, **extra
    ) -> None:
        """Record a scaling decision (and mirror it onto the telemetry hub)."""
        now = self.engine.now
        self.events.append(SchedulerEvent(now, function, action, sm, quota, node))
        hub = self.engine.hub
        if hub.enabled:
            payload: dict[str, object] = {"sm": sm, "quota": quota}
            if node is not None:
                payload["node"] = node
            payload.update(extra)
            hub.emit(now, "scheduler", action, function, **payload)

    def _reject_reasons(
        self, controller: FaSTPodController, sm_partition: float, quota_limit: float
    ) -> list[dict]:
        """Why each node rejected a placement that just found no fit.

        ``no-gpu-memory``: the memory-feasibility probe failed;
        ``fragmented``: enough free SM×quota area, but no single maximal
        rectangle holds the pod; ``no-capacity``: not enough free area at all.
        """
        width = quota_limit * 100.0
        probe = memory_probe(self.cluster, controller.function)
        rejects = []
        for node_name, gpu in self.placement.gpus.items():
            if not probe(node_name):
                reason = "no-gpu-memory"
            elif gpu.free_area() >= width * sm_partition:
                reason = "fragmented"
            else:
                reason = "no-capacity"
            rejects.append({"node": node_name, "reason": reason})
        return rejects

    # -- the control loop -----------------------------------------------------------
    def _tick(self) -> None:
        now = self.engine.now
        settings = self.settings
        # One capacity snapshot per tick, shared with the predictive views.
        # Exact because no on-tick action changes a serving set: prewarm,
        # retire, demote and evict touch warm or parked pods only, and the
        # memtier PromoteAction parks its pod warm.  Sleeping functions
        # (PredictiveAutoscaler.wake) have a gap of exactly 0: skipped.
        asleep = self.predictive.wake()
        self.running = {
            name: [
                RunningPod(pod_id, sm, q, self._throughput_of(name, sm, q, pod_id=pod_id))
                for pod_id, sm, _q_req, q in controller.serving_configs()
            ]
            for name, controller in self.controllers.items()
            if name not in asleep
        }
        self.capacity = {n: sum(p.throughput for p in pods) for n, pods in self.running.items()}
        # Predictive layer next: observe arrivals, plan this tick's floors and
        # forecasts (all the gap reads), pre-warm/retire WARM_IDLE pods.
        # Reactive runs = a no-op tick.
        self.predictive.on_tick()
        delta_rps: dict[str, float] = {}
        # Scale down gradually (see MAX_DOWN_PER_TICK), never below the floor.
        downs_allowed: dict[str, int] = {}
        promoted = self.gateway.promoted
        cooldown = settings.scale_down_cooldown
        for name, pods in self.running.items():
            # Gateway promotions (warm, or a demand swap-in) are scale-ups
            # the scheduler didn't make: honour the cooldown so this tick
            # doesn't drain them back.
            if name in promoted:
                promoted.discard(name)
                self._last_scale_up[name] = now
            predicted = self.predictive.predicted_rps(name) * settings.headroom
            floor = self.predictive.min_replicas_for(
                name, self.controllers[name].function.min_replicas
            )
            downs_allowed[name] = min(MAX_DOWN_PER_TICK, max(0, len(pods) - floor))
            capacity = self.capacity[name]
            delta = predicted - capacity
            if delta < 0 and now - self._last_scale_up.get(name, -1e9) < cooldown:
                delta = 0.0  # cooldown: suppress scale-down right after scale-up
            if delta < 0 and len(pods) <= floor:
                delta = 0.0  # keep at least the floor's warm instances
            if delta < 0 and -delta <= settings.down_hysteresis * max(capacity, 1e-9):
                delta = 0.0  # hysteresis: ignore marginal surpluses (noise)
            delta_rps[name] = delta

        for action in self.scaler.plan(delta_rps, self.running):
            if isinstance(action, ScaleUpAction):
                self._apply_up(action)
            elif isinstance(action, ScaleDownAction):
                if downs_allowed.get(action.function, 0) <= 0:
                    continue
                downs_allowed[action.function] -= 1
                self._apply_down(action)

        # Background defragmentation last: it sees this tick's placements,
        # and migrations it starts are make-before-break (no capacity dip
        # for the next tick's gap computation to misread).
        if self.defragmenter is not None:
            self.defragmenter.on_tick()

        self.replica_series.append((now, dict(self._replica_counts)))
        if self._running:
            self._handle = self.engine.schedule(settings.interval, self._tick)

    def _apply_up(self, action: ScaleUpAction) -> None:
        name = action.function
        pod = None
        # A parked WARM_IDLE pod beats a fresh placement: promotion costs
        # nothing (model resident, rectangle already bound) and serves now.
        warm = self.gateway.claim_warm(name)
        if warm is not None:
            kind, pod = "promote", warm.pod
        elif self.lifecycle is not None:
            # Next-best: a HOST_RESIDENT pod — a fabric swap-in instead of a
            # fresh placement plus full cold start.
            kind, pod = "swapin", self.lifecycle.promote(name)
        if pod is None:
            controller = self.controllers[name]
            sm, quota = action.sm_partition, action.quota
            # The scaler plans with Q as both request and limit; deploying at
            # [Q, Q] matches the profiling convention the throughputs assume.
            replica = self.place_pod(controller, [(sm, quota)])
            if replica is None:
                extra = {}
                if self.engine.hub.enabled:
                    extra["rejects"] = self._reject_reasons(controller, sm, quota)
                self._note("nofit", name, sm, quota, None, **extra)
                return
            kind, pod = "up", replica.pod
        self._last_scale_up[name] = self.engine.now
        self._note(
            kind, name, pod.spec.sm_partition, pod.spec.quota_limit, pod.node_name, pod=pod.pod_id
        )

    def _apply_down(self, action: ScaleDownAction) -> None:
        controller = self.controllers[action.function]
        if action.pod_id not in controller.replicas:
            return  # raced with an earlier removal
        node = release(self.placement, controller, action.pod_id)
        self._note("down", action.function, 0.0, 0.0, node, pod=action.pod_id)

    def _throughput_of(
        self, function: str, sm: float, quota: float, pod_id: str | None = None
    ) -> float:
        factor = 1.0
        if pod_id is not None:
            # Profiles are calibrated on the V100; a pod serving from a
            # faster/slower GPU type delivers proportionally scaled RPS.
            pod = self.cluster.pods.get(pod_id)
            if pod is not None and pod.node_name is not None:
                factor = self.cluster.node(pod.node_name).speed_factor
        point = self.database.get(function, sm, quota)
        if point is not None and factor == 1.0:
            return point.throughput
        # Non-calibration GPU types (and pods outside the profiled grid) use
        # the analytic rate: host time is CPU-side, so scaling the profiled
        # number linearly by the factor would overestimate duty-bound configs.
        model = self.controllers[function].function.model
        return model.expected_rate(sm, quota, gpu_factor=factor)
