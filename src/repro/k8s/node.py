"""A GPU worker node.

Mirrors the paper's work-node stack (Fig. 2): the GPU device with its driver,
the MPS server container (DaemonSet-managed), the FaST-Manager backend, the
Model Storage server, and the set of admitted pods.  Every pod's container
gets the same wiring — a :class:`~repro.manager.frontend.FaSTFrontend` —
and the node's *sharing mode* decides only whether that frontend has an MPS
client and a FaST backend:

* ``fast``      — MPS at the pod's own partition + backend (token-gated,
  spatial limits);
* ``timeshare`` — KubeShare-like: backend, MPS partition forced to 100%
  (single-token passing emerges because Σ running partitions ≤ 100%);
* ``racing``    — unmanaged: no MPS client, no backend (full-GPU contexts);
* ``exclusive`` — device-plugin semantics: as ``racing``, and the node
  admits at most one pod per GPU.
"""

from __future__ import annotations

import typing as _t

from repro.gpu.device import GPUDevice
from repro.gpu.driver import CudaDriver
from repro.gpu.memory import GpuOutOfMemoryError, MemoryLedger
from repro.gpu.mps import MPSServer
from repro.gpu.specs import GPUSpec
from repro.k8s.objects import Pod, PodPhase
from repro.manager.backend import FaSTBackend
from repro.manager.frontend import FaSTFrontend
from repro.modelshare.server import ModelStorageServer
from repro.modelshare.store_lib import ModelStoreLib

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

#: Sharing mechanisms a node understands (see repro.platform docstring).
SHARING_MODES = ("fast", "timeshare", "racing", "exclusive")


class NodeError(RuntimeError):
    """Invalid node operation (admission failure, unknown pod, ...)."""


class Container:
    """The container environment a pod's replica runtime executes in."""

    def __init__(
        self,
        pod: Pod,
        frontend: FaSTFrontend,
        store_lib: ModelStoreLib | None,
        speed_factor: float = 1.0,
    ):
        self.pod = pod
        self.frontend = frontend
        self.hook = frontend.hook
        self.store_lib = store_lib
        #: GPU-type speed relative to the V100 profiles (hetero clusters).
        self.speed_factor = speed_factor
        self.closed = False

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            if self.store_lib is not None:
                self.store_lib.release_all()
            self.frontend.close()


class GPUNode:
    """One worker node with a single GPU (the paper's testbed shape)."""

    def __init__(
        self,
        engine: "Engine",
        name: str,
        spec: GPUSpec,
        sharing_mode: str = "fast",
        window: float = 0.1,
        host_memory_mb: float | None = None,
        fabric_gbps: float = 16.0,
    ):
        if sharing_mode not in SHARING_MODES:
            raise NodeError(f"unknown sharing mode {sharing_mode!r}; known: {SHARING_MODES}")
        from repro.memtier.fabric import TransferFabric  # local: avoid import cycle
        from repro.models.scaling import gpu_type_factor  # local: avoid import cycle

        self.engine = engine
        self.name = name
        self.sharing_mode = sharing_mode
        self.spec = spec
        #: Serving speed of this node's GPU type relative to the V100 the
        #: model profiles were calibrated on (constant per spec).
        self.speed_factor = gpu_type_factor(spec)
        self.device = GPUDevice(engine, spec, name=f"{name}/gpu0")
        self.driver = CudaDriver(engine, self.device)
        # DaemonSet: one MPS server container per node (`fast`/`timeshare` connect).
        self.mps_server = MPSServer(self.device)
        self.mps_server.start()
        self.backend = FaSTBackend(engine, name=f"{name}/fast-backend", window=window)
        self.model_storage = ModelStorageServer(engine, self.driver, name=f"{name}/model-storage")
        self.containers: dict[str, Container] = {}
        #: Host↔GPU link model (swap-ins contend on it; idle until used).
        self.fabric = TransferFabric(engine, gbps=fabric_gbps, name=f"{name}/pcie")
        #: Host-RAM ledger for HOST_RESIDENT pods; ``None`` disables the
        #: memory tier on this node (nothing can park here).
        self.host_memory: MemoryLedger | None = (
            MemoryLedger(host_memory_mb, device_name=f"{name}/host")
            if host_memory_mb is not None
            else None
        )

    # -- capacity queries (used by node selection) ------------------------------
    @property
    def pod_count(self) -> int:
        return len(self.containers)

    @property
    def quota_in_use(self) -> float:
        """Σ ``quota_limit`` of the pods this GPU hosts, draining ones
        included (the timeshare baseline packs against it)."""
        return sum(c.pod.spec.quota_limit for c in self.containers.values())

    def pod_memory_requirement_mb(self, pod: Pod) -> float:
        """Device memory the pod will pin on this node, including the
        storage-server share if it is the first instance of its model here."""
        mem = pod.spec.gpu_mem_mb
        if pod.spec.use_model_sharing:
            from repro.models import get_model  # local: avoid import cycle

            model = get_model(pod.spec.model_name)
            if model.name not in self.model_storage.stored_models():
                mem += model.memory.server_mb
        return mem

    def fits_memory(self, pod: Pod) -> bool:
        return self.device.memory.can_allocate(self.pod_memory_requirement_mb(pod))

    # -- pod lifecycle -------------------------------------------------------------
    def admit(self, pod: Pod) -> Container:
        """Bind and start a pod's container on this node."""
        if pod.pod_id in self.containers:
            raise NodeError(f"pod {pod.pod_id} already on {self.name}")
        if self.sharing_mode == "exclusive" and self.containers:
            raise NodeError(
                f"{self.name}: device plugin grants exclusive GPU access; "
                f"already hosting {next(iter(self.containers))}"
            )
        if not self.fits_memory(pod):
            raise GpuOutOfMemoryError(
                self.pod_memory_requirement_mb(pod),
                self.device.memory.free_mb,
                self.device.name,
            )
        pod.node_name = self.name
        pod.transition(PodPhase.STARTING)
        container = self._build_container(pod)
        self.containers[pod.pod_id] = container
        return container

    def evict(self, pod: Pod) -> None:
        """Terminate a pod's container and release its resources.

        Also the exit path for ``HOST_RESIDENT`` pods: a parked pod has no
        container, so eviction just drops its host-RAM hold.
        """
        container = self.containers.pop(pod.pod_id, None)
        if container is None:
            if pod.phase is PodPhase.HOST_RESIDENT:
                pod.transition(PodPhase.TERMINATING)
                if self.host_memory is not None:
                    self.host_memory.release_owner(pod.pod_id)
                pod.transition(PodPhase.TERMINATED)
                return
            raise NodeError(f"pod {pod.pod_id} is not on {self.name}")
        if pod.phase in (
            PodPhase.STARTING,
            PodPhase.WARM_IDLE,
            PodPhase.RUNNING,
            PodPhase.MIGRATING,
        ):
            pod.transition(PodPhase.TERMINATING)
        container.close()
        pod.transition(PodPhase.TERMINATED)

    # -- memory tier (HOST_RESIDENT parking) -----------------------------------
    def can_park(self, weights_mb: float) -> bool:
        """Whether ``weights_mb`` of parked weights fit in host RAM now."""
        return self.host_memory is not None and self.host_memory.can_allocate(weights_mb)

    def park(self, pod: Pod, weights_mb: float) -> None:
        """Demote a ``WARM_IDLE`` pod to ``HOST_RESIDENT``.

        Frees *everything* the pod held on the GPU (container, contexts,
        device memory — via the container teardown) and charges its weights
        to the host-RAM ledger.  Free by construction: weights are
        immutable, so the host copy is retained from load time and no
        device→host copy is needed (the Torpor/FaaSwap rationale).
        """
        if self.host_memory is None:
            raise NodeError(f"{self.name}: no host memory tier configured")
        container = self.containers.get(pod.pod_id)
        if container is None:
            raise NodeError(f"pod {pod.pod_id} is not on {self.name}")
        self.host_memory.allocate(pod.pod_id, weights_mb)  # raises on host OOM
        del self.containers[pod.pod_id]
        pod.transition(PodPhase.HOST_RESIDENT)
        container.close()

    def readmit(self, pod: Pod, cost_s: float = 0.0) -> Container:
        """Swap a ``HOST_RESIDENT`` pod back onto the GPU.

        Re-pins the pod's device memory and rebuilds its container; the
        caller's replica then pays the actual fabric transfer as its cold
        start.  ``cost_s`` documents the swap-in estimate at promotion
        time in the pod's transition history.
        """
        if pod.pod_id in self.containers:
            raise NodeError(f"pod {pod.pod_id} already on {self.name}")
        if pod.phase is not PodPhase.HOST_RESIDENT:
            raise NodeError(f"pod {pod.pod_id} is not parked (phase {pod.phase})")
        if not self.fits_memory(pod):
            raise GpuOutOfMemoryError(
                self.pod_memory_requirement_mb(pod),
                self.device.memory.free_mb,
                self.device.name,
            )
        pod.transition(PodPhase.STARTING, cost=cost_s)
        if self.host_memory is not None:
            self.host_memory.release_owner(pod.pod_id)
        container = self._build_container(pod)
        self.containers[pod.pod_id] = container
        return container

    # -- container wiring ---------------------------------------------------------
    def _build_container(self, pod: Pod) -> Container:
        spec = pod.spec
        managed = self.sharing_mode in ("fast", "timeshare")
        frontend = FaSTFrontend(
            self.engine,
            pod.pod_id,
            self.backend if managed else None,
            self.driver,
            self.mps_server if managed else None,
            sm_partition=spec.sm_partition if self.sharing_mode == "fast" else 100.0,
            quota_request=spec.quota_request,
            quota_limit=spec.quota_limit,
            gpu_mem_mb=spec.gpu_mem_mb,
        )
        store_lib = self._make_store_lib(pod, frontend.ctx) if spec.use_model_sharing else None
        return Container(pod, frontend, store_lib, speed_factor=self.speed_factor)

    def _make_store_lib(self, pod: Pod, ctx) -> ModelStoreLib:
        return ModelStoreLib(self.engine, self.model_storage, self.driver, ctx, pod.pod_id)
