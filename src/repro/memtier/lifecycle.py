"""The public replica-lifecycle API of the memory tier.

One object owns every cross-tier replica transition — the surface scheduler,
autoscaler, and gateway all share instead of poking controller internals:

* :meth:`ReplicaLifecycle.demote` — ``WARM_IDLE`` → ``HOST_RESIDENT``:
  weights park in host RAM, the pod's GPU memory and MRA rectangle are
  released.  Free by construction (weights are immutable, the host copy is
  retained from load time — the Torpor/FaaSwap rationale).
* :meth:`ReplicaLifecycle.promote` — ``HOST_RESIDENT`` → ``STARTING``: the
  rectangle is re-placed on the pod's own node (weights are in *that*
  node's RAM), GPU memory is re-pinned, and the new replica's cold start is
  a fabric transfer of the weights — so promotion cost depends on the
  fabric's load *at the moment of promotion*, not a constant.
* :meth:`ReplicaLifecycle.evict` — ``HOST_RESIDENT`` → ``TERMINATED``: the
  host copy is dropped (next activation is a full cold start).

Cost hooks are explicit: :meth:`swap_in_estimate_s` is the documented
promotion-cost estimate (current fabric contention included) that policies
weigh against forecast gaps and SLO headroom.
"""

from __future__ import annotations

import typing as _t

from repro.k8s.objects import Pod, PodPhase

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.k8s.cluster import Cluster
    from repro.k8s.fastpod import FaSTPodController
    from repro.scheduler.mra import MaximalRectanglesScheduler
    from repro.sim.engine import Engine
    from repro.sim.process import Process


class ReplicaLifecycle:
    """Promote/demote/evict transitions between GPU and host residency.

    ``placement`` is the platform's MRA ledger whose rectangles track GPU
    space: a demotion frees the pod's rectangle, a promotion re-places it.
    """

    def __init__(
        self,
        engine: "Engine",
        cluster: "Cluster",
        controllers: _t.Mapping[str, "FaSTPodController"],
        placement: "MaximalRectanglesScheduler",
    ):
        self.engine = engine
        self.cluster = cluster
        self.controllers = dict(controllers)
        self.placement = placement
        self.demotions = 0
        self.promotions = 0
        self.evictions = 0

    # -- introspection / cost hooks ------------------------------------------------
    def weights_mb(self, function: str) -> float:
        """MB parked in host RAM (and swapped on promotion) per pod."""
        return self.controllers[function].function.swap_weights_mb()

    def parked(self, function: str) -> list[str]:
        """Pod ids currently HOST_RESIDENT for ``function``, oldest first.

        Pods whose demotion is still unwinding (killed but not yet parked
        node-side) are excluded — they cannot be promoted yet.
        """
        controller = self.controllers[function]
        return [
            pod_id
            for pod_id, pod in controller.parked.items()
            if pod.phase is PodPhase.HOST_RESIDENT
        ]

    def parked_count(self, function: str) -> int:
        return len(self.parked(function))

    def parked_total(self) -> int:
        return sum(self.parked_count(name) for name in self.controllers)

    def swap_in_estimate_s(self, function: str, node_name: str | None = None) -> float:
        """Estimated swap-in seconds *right now* (fabric contention included).

        The documented promotion-cost hook: ``weights / fair_share`` where
        fair share assumes this transfer joins the node fabric's current
        membership.  ``node_name=None`` uses the oldest parked pod's node
        (the one :meth:`promote` would pick), falling back to node 0.
        """
        if node_name is None:
            pods = self.parked(function)
            if pods:
                controller = self.controllers[function]
                node_name = controller.parked[pods[0]].node_name
        node = self.cluster.node(node_name if node_name is not None else 0)
        return node.fabric.estimate_s(self.weights_mb(function))

    # -- transitions -----------------------------------------------------------------
    def demote(self, function: str, pod_id: str) -> "Process | None":
        """Park a WARM_IDLE replica's weights in host RAM.

        Returns the (joinable) demotion process, or ``None`` when the pod is
        no longer demotable (promoted/gone since the decision was made) or
        the node's host RAM cannot take the weights.
        """
        controller = self.controllers[function]
        replica = controller.replicas.get(pod_id)
        if replica is None or not replica.warm_idle:
            return None
        weights = controller.function.swap_weights_mb()
        node = self.cluster.node(replica.pod.node_name)
        if not node.can_park(weights):
            return None
        process = controller.park(pod_id, weights)
        try:
            self.placement.unbind(pod_id)
        except KeyError:
            pass
        self.demotions += 1
        hub = self.engine.hub
        if hub.enabled:
            hub.emit(
                self.engine.now,
                "memtier",
                "demote",
                function,
                pod=pod_id,
                node=node.name,
                weights_mb=weights,
                fabric_active=node.fabric.active_count,
            )
        return process

    def promote(
        self,
        function: str,
        pod_id: str | None = None,
        *,
        warm: bool = False,
        demand: bool = False,
    ) -> Pod | None:
        """Swap a HOST_RESIDENT pod back onto its GPU.

        Picks the oldest parked pod unless ``pod_id`` names one.  The pod is
        pinned to its own node (its weights live in *that* node's RAM): the
        MRA rectangle is re-placed there, GPU memory feasibility is checked,
        and the new replica pays the fabric transfer as its cold start.

        ``warm=True`` brings the pod up in ``WARM_IDLE`` after the swap
        (policy-lead promotion ahead of predicted activity); ``demand=True``
        marks a gateway-driven promotion (a request is already parked), so
        the replica settles the gateway's in-flight swap counter on ready.

        Returns the promoted pod, or ``None`` when nothing is parked, the
        node's GPU memory cannot take the pod back, or no rectangle fits.
        """
        controller = self.controllers[function]
        if pod_id is None:
            candidates = self.parked(function)
            if not candidates:
                return None
            pod_id = candidates[0]
        pod = controller.parked.get(pod_id)
        if pod is None or pod.phase is not PodPhase.HOST_RESIDENT:
            return None
        node = self.cluster.node(pod.node_name)
        if not node.fits_memory(pod):
            return None
        # Route through select_node pinned to the pod's own node: it
        # defragments the free list on a miss, where a raw bind_at would
        # "no-fit" space the keep-reclamation policy left unmerged.
        width = pod.spec.quota_limit * 100.0
        choice = self.placement.select_node(
            width,
            pod.spec.sm_partition,
            allowed=lambda name: name == pod.node_name,
        )
        if choice is None:
            return None
        self.placement.bind_at(
            pod_id, pod.node_name, width, pod.spec.sm_partition, target=choice[1]
        )
        weights = controller.function.swap_weights_mb()
        estimate_s = node.fabric.estimate_s(weights)
        try:
            replica = controller.restore(
                pod_id,
                swap_in_mb=weights,
                warm=warm,
                cost_s=estimate_s,
            )
        except Exception:
            self.placement.unbind(pod_id)
            raise
        replica.swap_demand = demand
        self.promotions += 1
        hub = self.engine.hub
        if hub.enabled:
            hub.emit(
                self.engine.now,
                "memtier",
                "promote",
                function,
                pod=pod_id,
                node=pod.node_name,
                weights_mb=weights,
                fabric_active=node.fabric.active_count,
                estimate_s=estimate_s,
                warm=warm,
                demand=demand,
            )
        return replica.pod

    def evict(self, function: str, pod_id: str) -> bool:
        """Drop a HOST_RESIDENT pod entirely (host RAM released).

        Returns ``False`` when the pod is not (or not yet) parked — e.g. its
        demotion is still unwinding, or it was promoted since the decision.
        """
        controller = self.controllers[function]
        pod = controller.parked.get(pod_id)
        if pod is None or pod.phase is not PodPhase.HOST_RESIDENT:
            return False
        node_name = pod.node_name
        controller.evict_parked(pod_id)
        self.evictions += 1
        hub = self.engine.hub
        if hub.enabled:
            hub.emit(
                self.engine.now,
                "memtier",
                "evict",
                function,
                pod=pod_id,
                node=node_name,
            )
        return True

    def evict_all(self) -> int:
        """Tear down every parked pod (platform shutdown); returns the count."""
        count = 0
        for function in self.controllers:
            for pod_id in self.parked(function):
                if self.evict(function, pod_id):
                    count += 1
        return count
