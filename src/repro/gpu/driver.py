"""CUDA driver API facade.

The surface the FaST hook library intercepts (paper §3.3, §3.5):

* context management  — :meth:`CudaDriver.create_context` (one per process;
  when an MPS client is attached, the context inherits its SM partition);
* kernel execution    — :meth:`CudaDriver.launch_burst` +
  :meth:`CudaDriver.synchronize` (launch is asynchronous, sync blocks until
  outstanding bursts complete — the point where Gemini-style timing events
  measure GPU residency);
* memory              — ``mem_alloc`` / ``mem_free`` against the device
  ledger;
* IPC                 — ``ipc_get_mem_handle`` / ``ipc_open_mem_handle``,
  the zero-copy path the Model Storage Server uses: opening a handle maps
  the *same* allocation and charges no additional device memory.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing as _t

from repro.gpu.device import GPUDevice
from repro.gpu.kernels import KernelBurst
from repro.gpu.mps import MPSClient
from repro.sim.events import AllOf, Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class CudaError(RuntimeError):
    """CUDA_ERROR_* conditions other than OOM."""


@dataclasses.dataclass(frozen=True, slots=True)
class DevicePtr:
    """An opaque device pointer (allocation id + size)."""

    alloc_id: int
    size_mb: float
    device: str


@dataclasses.dataclass(frozen=True, slots=True)
class IpcMemHandle:
    """Serializable handle to a device allocation (cuIpcGetMemHandle)."""

    alloc_id: int
    size_mb: float
    device: str


class CudaContext:
    """Per-process CUDA context."""

    def __init__(self, driver: "CudaDriver", owner: str, mps_client: MPSClient | None):
        self.driver = driver
        self.owner = owner
        self.mps_client = mps_client
        self.allocations: dict[int, DevicePtr] = {}
        self.mapped_ipc: dict[int, IpcMemHandle] = {}
        self.outstanding: list["Event"] = []
        self.destroyed = False

    @property
    def sm_demand(self) -> float:
        """Partition bursts from this context carry (100 if no MPS client)."""
        if self.mps_client is not None and self.mps_client.connected:
            return self.mps_client.sm_demand
        return 100.0

    def _check_alive(self) -> None:
        if self.destroyed:
            raise CudaError(f"context of {self.owner} was destroyed")


class CudaDriver:
    """Driver instance bound to one :class:`GPUDevice`."""

    def __init__(self, engine: "Engine", device: GPUDevice):
        self.engine = engine
        self.device = device
        self._alloc_ids = itertools.count(1)
        #: alloc_id -> (owner, refcount); IPC opens bump the refcount.
        self._allocs: dict[int, tuple[str, int, float]] = {}

    # -- contexts ---------------------------------------------------------
    def create_context(self, owner: str, mps_client: MPSClient | None = None) -> CudaContext:
        if mps_client is not None and mps_client.server.device is not self.device:
            raise CudaError("MPS client belongs to a different device")
        return CudaContext(self, owner, mps_client)

    def destroy_context(self, ctx: CudaContext) -> None:
        """Free everything the context still holds (process exit semantics)."""
        for ptr in list(ctx.allocations.values()):
            self.mem_free(ctx, ptr)
        ctx.mapped_ipc.clear()
        ctx.destroyed = True

    # -- execution ----------------------------------------------------------
    def launch_burst(self, ctx: CudaContext, duration: float, sm_activity: float) -> "Event":
        """cuLaunchKernel(+stream): submit one burst; returns completion event.

        The burst's SM demand comes from the context's MPS partition; its
        occupancy contribution is clipped to the partition (kernels cannot use
        SMs the partition withholds).  Settled bursts leave the context's
        ``outstanding`` list here, so it only holds what a sync would wait on.
        """
        ctx._check_alive()
        demand = ctx.sm_demand
        done = self.device.submit(KernelBurst(duration, demand, min(sm_activity, demand / 100.0)))
        ctx.outstanding = [e for e in ctx.outstanding if not e.triggered]
        ctx.outstanding.append(done)
        return done

    def synchronize(self, ctx: CudaContext) -> "Event":
        """cuCtxSynchronize: event settling when all outstanding bursts finish."""
        ctx._check_alive()
        pending = [e for e in ctx.outstanding if not e.triggered]
        ctx.outstanding = pending
        if not pending:
            done = self.engine.event("sync.noop")
            done.succeed([])
            return done
        return AllOf(self.engine, pending)

    # -- memory ---------------------------------------------------------------
    def mem_alloc(self, ctx: CudaContext, size_mb: float) -> DevicePtr:
        """cuMemAlloc: charge ``size_mb`` to the context's owner."""
        ctx._check_alive()
        self.device.memory.allocate(ctx.owner, size_mb)
        ptr = DevicePtr(next(self._alloc_ids), size_mb, self.device.name)
        self._allocs[ptr.alloc_id] = (ctx.owner, 1, size_mb)
        ctx.allocations[ptr.alloc_id] = ptr
        return ptr

    def mem_free(self, ctx: CudaContext, ptr: DevicePtr) -> None:
        """cuMemFree: release an allocation owned by this context."""
        if ptr.alloc_id not in ctx.allocations:
            raise CudaError(f"{ctx.owner} frees pointer it does not own: {ptr}")
        owner, refs, size = self._allocs[ptr.alloc_id]
        del ctx.allocations[ptr.alloc_id]
        refs -= 1
        if refs > 0:
            # Memory stays resident while IPC mappings exist.
            self._allocs[ptr.alloc_id] = (owner, refs, size)
            return
        del self._allocs[ptr.alloc_id]
        self.device.memory.free(owner, size)

    # -- IPC --------------------------------------------------------------------
    def ipc_get_mem_handle(self, ptr: DevicePtr) -> IpcMemHandle:
        """cuIpcGetMemHandle: export an allocation for other processes."""
        if ptr.alloc_id not in self._allocs:
            raise CudaError(f"cannot export unknown allocation {ptr}")
        return IpcMemHandle(ptr.alloc_id, ptr.size_mb, ptr.device)

    def ipc_open_mem_handle(self, ctx: CudaContext, handle: IpcMemHandle) -> DevicePtr:
        """cuIpcOpenMemHandle: map a shared allocation — zero-copy, no charge."""
        ctx._check_alive()
        entry = self._allocs.get(handle.alloc_id)
        if entry is None:
            raise CudaError(f"stale IPC handle {handle}")
        owner, refs, size = entry
        self._allocs[handle.alloc_id] = (owner, refs + 1, size)
        ctx.mapped_ipc[handle.alloc_id] = handle
        return DevicePtr(handle.alloc_id, handle.size_mb, handle.device)

    def ipc_close_mem_handle(self, ctx: CudaContext, ptr: DevicePtr) -> None:
        """cuIpcCloseMemHandle: unmap; frees device memory on last release."""
        if ptr.alloc_id not in ctx.mapped_ipc:
            raise CudaError(f"{ctx.owner} closes IPC mapping it does not hold")
        del ctx.mapped_ipc[ptr.alloc_id]
        owner, refs, size = self._allocs[ptr.alloc_id]
        refs -= 1
        if refs > 0:
            self._allocs[ptr.alloc_id] = (owner, refs, size)
        else:
            del self._allocs[ptr.alloc_id]
            self.device.memory.free(owner, size)
