"""GPU hardware substrate.

Everything the paper's testbed provides in silicon is modelled here:

* :mod:`repro.gpu.specs` — device catalogues (Tesla V100, A100, T4).
* :mod:`repro.gpu.memory` — device-memory ledger with OOM semantics.
* :mod:`repro.gpu.kernels` — kernel-burst descriptions of DL inference work.
* :mod:`repro.gpu.device` — the execution engine: a capacity-sharing
  ("fluid") model of concurrent kernel execution that reproduces the
  utilization / SM-occupancy behaviour the paper measures (see DESIGN.md §4).
* :mod:`repro.gpu.mps` — NVIDIA MPS server/client objects enforcing
  ``CUDA_MPS_ACTIVE_THREAD_PERCENTAGE`` spatial partitions.
* :mod:`repro.gpu.driver` — the CUDA driver API facade that the FaST hook
  library intercepts (contexts, launches, synchronisation, memory, IPC).
* :mod:`repro.gpu.metrics` — DCGM-style utilization/occupancy accounting.
"""

from repro.gpu.device import BurstHandle, GPUDevice
from repro.gpu.driver import CudaContext, CudaDriver, DevicePtr, IpcMemHandle
from repro.gpu.kernels import InferencePlan, KernelBurst
from repro.gpu.memory import GpuOutOfMemoryError, MemoryLedger
from repro.gpu.metrics import GPUMetrics, MetricsSampler, UtilizationSample
from repro.gpu.mps import MPSClient, MPSServer
from repro.gpu.specs import GPU_CATALOG, GPUSpec, gpu_spec

__all__ = [
    "BurstHandle",
    "CudaContext",
    "CudaDriver",
    "DevicePtr",
    "GPUDevice",
    "GPUMetrics",
    "GPU_CATALOG",
    "GPUSpec",
    "GpuOutOfMemoryError",
    "InferencePlan",
    "IpcMemHandle",
    "KernelBurst",
    "MPSClient",
    "MPSServer",
    "MemoryLedger",
    "MetricsSampler",
    "UtilizationSample",
    "gpu_spec",
]
