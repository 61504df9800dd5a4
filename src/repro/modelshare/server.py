"""The Model Storage Server.

Implemented in the paper over the Apache Plasma object store + a libtorch
C++ extension; here the server owns a CUDA context on its node's GPU,
allocates one buffer per model's weight tensors (plus the fixed storage
context), and hands out IPC handles.  Reference counts track mapping pods;
tensors stay cached at refcount zero (the paper's keep-warm behaviour) until
:meth:`ModelStorageServer.evict` is called — e.g. by a node under memory
pressure.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.gpu.driver import CudaDriver, DevicePtr, IpcMemHandle
from repro.models.profiles import SHARE_CONTEXT_MB, ModelProfile

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class ModelShareError(RuntimeError):
    """Invalid storage-server operation."""


@dataclasses.dataclass(slots=True)
class StoredModel:
    """Server-side record of one stored model.

    ``materialized`` settles once the storing pod finished writing the
    tensors; concurrent GETs block on it rather than mapping half-written
    buffers.
    """

    model_name: str
    ptr: DevicePtr
    handle: IpcMemHandle
    size_mb: float
    materialized: object = None  # repro.sim.events.Event
    refcount: int = 0
    store_time: float = 0.0


class ModelStorageServer:
    """Per-node tensor store with STORE/GET semantics (paper Fig. 7)."""

    def __init__(self, engine: "Engine", driver: CudaDriver, name: str = "model-storage"):
        self.engine = engine
        self.driver = driver
        self.name = name
        self.ctx = driver.create_context(name)
        self._models: dict[str, StoredModel] = {}
        # -- stats --
        self.store_calls = 0
        self.get_calls = 0
        self.get_hits = 0

    # -- STORE/GET API -------------------------------------------------------
    def store(self, model: ModelProfile) -> StoredModel:
        """STORE(): allocate the model's tensors on the GPU, return the record.

        Idempotent: storing an already-stored model returns the existing
        record (the paper's GET falls back to STORE on miss; both paths
        converge here).
        """
        self.store_calls += 1
        existing = self._models.get(model.name)
        if existing is not None:
            return existing
        size_mb = model.memory.weights_mb + SHARE_CONTEXT_MB + model.memory.ipc_overhead_mb
        # ② cuMemAlloc for the tensor buffer (+ storage process context),
        #    then cuIpcGetMemHandle to export it.
        ptr = self.driver.mem_alloc(self.ctx, size_mb)
        handle = self.driver.ipc_get_mem_handle(ptr)
        record = StoredModel(
            model_name=model.name,
            ptr=ptr,
            handle=handle,
            size_mb=size_mb,
            materialized=self.engine.event(f"{self.name}.{model.name}.materialized"),
            store_time=self.engine.now,
        )
        self._models[model.name] = record
        return record

    def get(self, model: ModelProfile) -> tuple[StoredModel, bool]:
        """GET(): return (record, was_hit); triggers STORE on miss."""
        self.get_calls += 1
        record = self._models.get(model.name)
        if record is not None:
            self.get_hits += 1
            return record, True
        return self.store(model), False

    def abort_store(self, model_name: str) -> None:
        """The storing pod died mid-STORE: drop the half-written record.

        Waiters blocked on ``materialized`` are failed so they retry the
        GET — the first retrier becomes the new storer.  No-op if the model
        finished materializing (normal teardown path).
        """
        record = self._models.get(model_name)
        if record is None or record.materialized.triggered:
            return
        if record.refcount:
            raise ModelShareError(f"{model_name}: aborting a mapped record")
        del self._models[model_name]
        self.driver.mem_free(self.ctx, record.ptr)
        record.materialized.fail(ModelShareError(f"STORE of {model_name} aborted"))

    # -- mapping lifecycle -----------------------------------------------------
    def attach(self, model_name: str) -> IpcMemHandle:
        """A pod maps the model; bumps the refcount."""
        record = self._record(model_name)
        record.refcount += 1
        return record.handle

    def detach(self, model_name: str) -> None:
        """A pod unmapped the model (teardown); tensors stay cached."""
        record = self._record(model_name)
        if record.refcount <= 0:
            raise ModelShareError(f"{model_name}: detach without attach")
        record.refcount -= 1

    def evict(self, model_name: str) -> float:
        """Drop a cached model with no mappers; returns the freed MB."""
        record = self._record(model_name)
        if record.refcount > 0:
            raise ModelShareError(
                f"cannot evict {model_name}: {record.refcount} pods still mapped"
            )
        self.driver.mem_free(self.ctx, record.ptr)
        del self._models[model_name]
        return record.size_mb

    # -- introspection ------------------------------------------------------------
    def stored_models(self) -> list[str]:
        return sorted(self._models)

    def refcount(self, model_name: str) -> int:
        return self._record(model_name).refcount

    def _record(self, model_name: str) -> StoredModel:
        try:
            return self._models[model_name]
        except KeyError:
            raise ModelShareError(f"model {model_name} is not stored") from None
