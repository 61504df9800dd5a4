"""The FaSTPod CRD controller (paper §3.2, Fig. 4).

Unlike a Deployment (integer GPUs per pod), a FaSTPod manages a set of
replicas each carrying **fractional spatio-temporal resources**
(``sm_partition``, ``quota_request``, ``quota_limit``, ``gpu_mem``), filled
in automatically by the profiler/scheduler rather than by the user.  On
scale-up the controller creates the pod object, admits it on the selected
node (which syncs the resource config into the FaST Backend table), and
starts the replica runtime; on scale-down it drains and evicts.
"""

from __future__ import annotations

import itertools
import typing as _t

from repro.faas.function import FunctionSpec
from repro.faas.replica import FunctionReplica
from repro.k8s.cluster import Cluster
from repro.k8s.node import GPUNode
from repro.k8s.objects import ObjectMeta, Pod, PodSpec

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.faas.gateway import Gateway
    from repro.sim.engine import Engine
    from repro.sim.process import Process


class FaSTPodController:
    """Replica-set controller for one function."""

    def __init__(
        self,
        engine: "Engine",
        cluster: Cluster,
        gateway: "Gateway",
        function: FunctionSpec,
    ):
        self.engine = engine
        self.cluster = cluster
        self.gateway = gateway
        self.function = function
        self.replicas: dict[str, FunctionReplica] = {}
        #: HOST_RESIDENT pods of this function (memory tier): weights in
        #: host RAM, no container, no replica — keyed by pod_id, FIFO.
        self.parked: dict[str, Pod] = {}
        #: Shared live replica counts keyed by function name, kept on every
        #: replica change (the scheduler's replica series reads them).
        self.replica_counts: dict[str, int] | None = None
        self._serials = itertools.count(1)

    # -- scale up -----------------------------------------------------------------
    def scale_up(
        self,
        node: GPUNode,
        sm_partition: float,
        quota_request: float,
        quota_limit: float,
        warm: bool = False,
        swap_in_mb: float | None = None,
    ) -> FunctionReplica:
        """Create + admit one replica with the given 2D resource config.

        ``warm=True`` creates a pre-warmed replica: it cold-starts, then
        parks in ``WARM_IDLE`` (memory held, zero quota) until promoted.
        ``swap_in_mb`` replaces the model-load cold start with a host→GPU
        transfer of that many MB across ``node``'s fabric — the migration
        path, where the weights are already host-resident on the cluster
        and the destination pays the fabric swap-in instead of a full load.
        """
        serial = next(self._serials)
        name = f"fastpod-{self.function.name}-{serial}"
        spec = PodSpec(
            function_name=self.function.name,
            model_name=self.function.model.name,
            sm_partition=sm_partition,
            quota_request=quota_request,
            quota_limit=quota_limit,
            gpu_mem_mb=self.function.pod_gpu_mem_mb(),
            use_model_sharing=self.function.use_model_sharing,
        )
        meta = ObjectMeta(
            name=name, annotations=spec.annotations(), labels={"faas_function": self.function.name}
        )
        pod = Pod(meta=meta, spec=spec)
        self.cluster.register_pod(pod)
        container = node.admit(pod)
        # Stream keyed by the stable pod *name* (not pod_id, whose uid is a
        # process-global counter) so identical runs draw identical jitter.
        rng = self.engine.rng.stream(f"replica.{name}")
        replica = FunctionReplica(
            self.engine,
            pod,
            container,
            self.function,
            self.gateway,
            rng,
            warm_idle=warm,
            swap_in_mb=swap_in_mb,
            swap_fabric=node.fabric if swap_in_mb is not None else None,
        )
        self.replicas[pod.pod_id] = replica
        self._touch()
        return replica

    # -- scale down ------------------------------------------------------------------
    def scale_down(self, pod_id: str, drain: bool = True) -> "Process":
        """Gracefully (or immediately) remove one replica; returns the
        termination process (joinable)."""
        replica = self.replicas.pop(pod_id, None)
        if replica is None:
            raise KeyError(f"{self.function.name}: no replica {pod_id}")
        self._touch()

        def terminate():
            if drain:
                yield from replica.drain_and_stop()
            else:
                replica.kill()
                yield 0.0
            node = self.cluster.node(replica.pod.node_name)
            node.evict(replica.pod)
            self.cluster.forget_pod(pod_id)

        return self.engine.process(terminate(), name=f"scale-down:{pod_id}")

    def scale_down_all(self, drain: bool = True) -> list["Process"]:
        return [self.scale_down(pod_id, drain=drain) for pod_id in list(self.replicas)]

    # -- memory tier (driven by repro.memtier.ReplicaLifecycle) --------------------
    def park(self, pod_id: str, weights_mb: float) -> "Process":
        """Demote a WARM_IDLE replica to HOST_RESIDENT; returns the
        (joinable) demotion process.

        The replica object is retired immediately (it stops counting as
        capacity and leaves the gateway's warm pool); the node-side park —
        container teardown, GPU memory release, host-RAM charge — happens
        once the replica process has unwound.
        """
        replica = self.replicas.pop(pod_id, None)
        if replica is None:
            raise KeyError(f"{self.function.name}: no replica {pod_id}")
        if not replica.warm_idle:
            self.replicas[pod_id] = replica
            raise ValueError(f"{self.function.name}: {pod_id} is not WARM_IDLE")
        self.parked[pod_id] = replica.pod
        self._touch()

        def demote():
            replica.kill()
            yield 0.0  # let the interrupt unwind
            node = self.cluster.node(replica.pod.node_name)
            node.park(replica.pod, weights_mb)

        return self.engine.process(demote(), name=f"park:{pod_id}")

    def restore(
        self,
        pod_id: str,
        swap_in_mb: float,
        warm: bool = False,
        cost_s: float = 0.0,
    ) -> FunctionReplica:
        """Swap a HOST_RESIDENT pod back in; returns the new replica.

        The replica's "cold start" is a host→GPU transfer of
        ``swap_in_mb`` across the pod's node fabric.  ``warm=True`` parks
        it back in WARM_IDLE after the swap (policy-lead promotion);
        otherwise it goes straight to serving.
        """
        pod = self.parked.pop(pod_id, None)
        if pod is None:
            raise KeyError(f"{self.function.name}: no parked pod {pod_id}")
        node = self.cluster.node(pod.node_name)
        try:
            container = node.readmit(pod, cost_s=cost_s)
        except Exception:
            self.parked[pod_id] = pod
            raise
        rng = self.engine.rng.stream(f"replica.{pod.meta.name}")
        replica = FunctionReplica(
            self.engine,
            pod,
            container,
            self.function,
            self.gateway,
            rng,
            warm_idle=warm,
            swap_in_mb=swap_in_mb,
            swap_fabric=node.fabric,
        )
        self.replicas[pod.pod_id] = replica
        self._touch()
        return replica

    def evict_parked(self, pod_id: str) -> None:
        """Terminate a HOST_RESIDENT pod (host RAM released, pod forgotten)."""
        pod = self.parked.pop(pod_id, None)
        if pod is None:
            raise KeyError(f"{self.function.name}: no parked pod {pod_id}")
        self._touch()
        self.cluster.node(pod.node_name).evict(pod)
        self.cluster.forget_pod(pod_id)

    def _touch(self) -> None:
        """Replicas or parked pods changed: a sleeping function may wake,
        and the live replica count moves."""
        name = self.function.name
        self.gateway.touched.add(name)
        if self.replica_counts is not None:
            self.replica_counts[name] = len(self.replicas)

    # -- introspection ------------------------------------------------------------------
    @property
    def replica_count(self) -> int:
        return len(self.replicas)

    @property
    def warm_count(self) -> int:
        """Replicas currently parked in WARM_IDLE."""
        return sum(1 for r in self.replicas.values() if r.warm_pending)

    @property
    def serving_count(self) -> int:
        """Replicas that are (or will be, post cold start) serving traffic."""
        return self.replica_count - self.warm_count

    def warm_replicas(self) -> list[FunctionReplica]:
        return [r for r in self.replicas.values() if r.warm_pending]

    def running_configs(self) -> list[tuple[str, float, float, float]]:
        """[(pod_id, sm, q_request, q_limit)] of live replicas."""
        return [
            (
                r.pod.pod_id,
                r.pod.spec.sm_partition,
                r.pod.spec.quota_request,
                r.pod.spec.quota_limit,
            )
            for r in self.replicas.values()
        ]

    def serving_configs(self) -> list[tuple[str, float, float, float]]:
        """Like :meth:`running_configs`, excluding WARM_IDLE replicas — a
        parked pod contributes no throughput, so the scaling loop must not
        count it as capacity (nor try to drain it; retirement is the
        predictive layer's job)."""
        return [
            (
                r.pod.pod_id,
                r.pod.spec.sm_partition,
                r.pod.spec.quota_request,
                r.pod.spec.quota_limit,
            )
            for r in self.replicas.values()
            if not r.warm_pending
        ]
