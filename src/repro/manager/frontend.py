"""The FaST Frontend: container-side wiring (paper §3.3, Fig. 5a).

When a function instance container starts, the frontend

1. connects to the node's MPS server and configures the SM partition
   (``CUDA_MPS_ACTIVE_THREAD_PERCENTAGE``) — step ① of Fig. 5a;
2. registers the pod's time quota and memory with the FaST Backend — step ②;
3. creates the CUDA context and the hook library through which the inference
   task executes (steps ③/④ happen per burst inside the hook).

Teardown reverses everything (token, backend row, MPS client, context).
Every sharing mode uses this one wiring: without an MPS server the context
sees the whole GPU, and without a backend the hook launches unmediated
(the racing and device-plugin baselines).
"""

from __future__ import annotations

import typing as _t

from repro.gpu.driver import CudaDriver
from repro.gpu.mps import MPSServer
from repro.manager.backend import FaSTBackend
from repro.manager.hook import CudaHookLibrary

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class FaSTFrontend:
    """Spatio-temporal access wiring for one function instance container."""

    def __init__(
        self,
        engine: "Engine",
        pod_id: str,
        backend: FaSTBackend | None,
        driver: CudaDriver,
        mps_server: MPSServer | None,
        sm_partition: float,
        quota_request: float,
        quota_limit: float,
        gpu_mem_mb: float,
    ):
        self.engine = engine
        self.pod_id = pod_id
        self.backend = backend
        self.driver = driver
        self.gpu_mem_mb = gpu_mem_mb
        # ① configure the SM partition in the MPS server.
        self.mps_client = (
            mps_server.connect(pod_id, sm_partition) if mps_server is not None else None
        )
        # ② register quotas (and memory) in the FaST Backend table.
        if backend is not None:
            backend.register(pod_id, sm_partition, quota_request, quota_limit)
        # Reserve the pod's GPU memory up front (framework + model + buffers).
        driver.device.memory.allocate(pod_id, gpu_mem_mb)
        self.ctx = driver.create_context(pod_id, self.mps_client)
        self.hook = CudaHookLibrary(engine, backend, driver, self.ctx, pod_id)
        self.closed = False

    def close(self) -> None:
        """Tear the container down, releasing every resource it holds."""
        if self.closed:
            return
        self.closed = True
        self.hook.release()
        if self.backend is not None:
            self.backend.deregister(self.pod_id)
        self.driver.destroy_context(self.ctx)
        self.driver.device.memory.release_owner(self.pod_id)
        if self.mps_client is not None:
            self.mps_client.disconnect()
