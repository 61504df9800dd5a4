"""The Model Store Lib: pod-side client of the storage server.

Wraps the paper's Fig. 7 flow for a function instance: on cold start the pod
either STOREs the model (first instance: full weight load from host) or GETs
it (subsequent instances: IPC-handle parse + tensor-object wrap, orders of
magnitude faster).  The returned wrapped tensor is zero-copy: no additional
device memory is charged to the pod for weights.
"""

from __future__ import annotations

import typing as _t

from repro.gpu.driver import CudaContext, CudaDriver, DevicePtr
from repro.models.profiles import ModelProfile
from repro.modelshare.server import ModelShareError, ModelStorageServer
from repro.sim.errors import Interrupt

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class ModelStoreLib:
    """STORE/GET client bound to one pod's CUDA context."""

    def __init__(
        self,
        engine: "Engine",
        server: ModelStorageServer,
        driver: CudaDriver,
        ctx: CudaContext,
        pod_id: str,
    ):
        self.engine = engine
        self.server = server
        self.driver = driver
        self.ctx = ctx
        self.pod_id = pod_id
        self._mapped: dict[str, DevicePtr] = {}

    def load_shared(self, model: ModelProfile):
        """(generator) Obtain the model's weights via the storage server.

        Returns the mapped device pointer.  Takes ``load_time_s`` when this
        pod is the first to store the model (host→device weight transfer),
        ``shared_load_time_s`` on a cache hit (handle parse + wrap only).
        """
        if model.name in self._mapped:
            return self._mapped[model.name]
        while True:
            record, hit = self.server.get(model)
            if hit:
                if not record.materialized.triggered:
                    # Another pod is mid-STORE: wait for its transfer.  If
                    # that pod dies the wait fails and we retry — possibly
                    # becoming the storer ourselves.
                    try:
                        yield record.materialized
                    except ModelShareError:
                        continue
                if model.shared_load_time_s > 0:
                    yield model.shared_load_time_s
                break
            # First instance: full host→device weight transfer, then publish.
            try:
                if model.load_time_s > 0:
                    yield model.load_time_s
            except Interrupt:
                # Killed mid-STORE (scale-down/eviction): release the
                # half-written record so waiters can redo the STORE.
                self.server.abort_store(model.name)
                raise
            record.materialized.succeed()
            break
        handle = self.server.attach(model.name)
        # ③ cuIpcOpenMemHandle: zero-copy mapping into the pod's context.
        ptr = self.driver.ipc_open_mem_handle(self.ctx, handle)
        self._mapped[model.name] = ptr
        return ptr

    def release(self, model_name: str) -> None:
        """Unmap one model (pod teardown)."""
        ptr = self._mapped.pop(model_name, None)
        if ptr is None:
            return
        self.driver.ipc_close_mem_handle(self.ctx, ptr)
        self.server.detach(model_name)

    def release_all(self) -> None:
        for name in list(self._mapped):
            self.release(name)

    @property
    def mapped_models(self) -> list[str]:
        return sorted(self._mapped)
