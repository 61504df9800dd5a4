"""Model profile dataclasses and inference-plan generation."""

from __future__ import annotations

import dataclasses
import math
import typing as _t

import numpy as np

from repro.gpu.kernels import InferencePlan
from repro.models.scaling import interpolate_anchors, monotone, saturation_point

#: Fixed storage-process context the Model Storage Server pays per model on a
#: V100 (paper §5.5: "a fixed overhead of 300M ... to manage the storage
#: process context", the hatched areas in Fig. 13).
SHARE_CONTEXT_MB = 300.0


@dataclasses.dataclass(frozen=True, slots=True)
class MemoryProfile:
    """GPU memory composition of one deployed function instance.

    ``framework_mb`` is the CUDA context + framework runtime (PyTorch/TF),
    ``weights_mb`` the parameter tensors, ``activation_mb`` workspace and
    activation buffers, ``ipc_overhead_mb`` the per-tensor IPC bookkeeping the
    storage server carries.  The three derived footprints reproduce the bars
    of paper Fig. 13 exactly (constants in the zoo).
    """

    framework_mb: float
    weights_mb: float
    activation_mb: float
    ipc_overhead_mb: float = 0.0

    @property
    def original_mb(self) -> float:
        """Footprint of a stand-alone pod (no model sharing)."""
        return self.framework_mb + self.weights_mb + self.activation_mb

    @property
    def shared_pod_mb(self) -> float:
        """Per-pod footprint under model sharing (weights live on the server)."""
        return self.framework_mb + self.activation_mb

    @property
    def server_mb(self) -> float:
        """One-off storage-server footprint: shared tensors + context."""
        return self.weights_mb + SHARE_CONTEXT_MB + self.ipc_overhead_mb

    def total_mb(self, replicas: int, shared: bool) -> float:
        """Whole-GPU footprint for ``replicas`` instances of this function."""
        if replicas < 0:
            raise ValueError("replicas must be >= 0")
        if replicas == 0:
            return 0.0
        if shared:
            return self.server_mb + replicas * self.shared_pod_mb
        return replicas * self.original_mb


@dataclasses.dataclass(frozen=True, slots=True)
class ModelProfile:
    """Calibrated behavioural profile of one DL inference function.

    Timing parameters are for batch-1 inference on a V100 (the paper's
    serving setup).  ``scaling_anchors`` map SM-partition % to relative
    processing rate; see :mod:`repro.models.scaling`.
    """

    name: str
    task: str
    framework: str
    #: GPU-resident ms per request at a 100% SM partition.
    gpu_time_ms: float
    #: Host-side ms per request (pre/post-processing, launch gaps).
    host_time_ms: float
    #: Kernel bursts per request (sync points; recurrent models have many).
    n_bursts: int
    #: Fraction of total SM capacity one request's kernels keep busy at 100%.
    sm_residency: float
    #: Occupancy shrinks on small partitions: activity = residency*(s/100)^exp.
    occupancy_exponent: float
    scaling_anchors: _t.Mapping[float, float]
    memory: MemoryProfile
    #: Latency SLO used by the autoscaler experiments (paper gives ResNet=69ms).
    slo_ms: float
    #: Coefficient of variation of per-request GPU time (measured jitter).
    jitter_cv: float = 0.05
    #: Cold-start seconds: framework boot + weight load/transfer.
    load_time_s: float = 2.0
    #: Cold-start seconds when weights are mapped from the storage server.
    shared_load_time_s: float = 0.3

    def __post_init__(self) -> None:
        if self.gpu_time_ms <= 0 or self.host_time_ms < 0:
            raise ValueError(f"{self.name}: bad timing parameters")
        if self.n_bursts < 1:
            raise ValueError(f"{self.name}: need at least one burst")
        if not 0 < self.sm_residency <= 1:
            raise ValueError(f"{self.name}: sm_residency outside (0,1]")
        if not monotone(self.scaling_anchors):
            raise ValueError(f"{self.name}: scaling anchors must be monotone")

    # -- analytic rates (used by tests, the scheduler, and sanity checks) ----
    def scale(self, partition_pct: float) -> float:
        """Relative rate at ``partition_pct``% SMs."""
        return interpolate_anchors(self.scaling_anchors, partition_pct)

    @property
    def saturation_partition(self) -> float:
        return saturation_point(self.scaling_anchors)

    def service_time_s(self, partition_pct: float) -> float:
        """Expected request latency on an idle GPU at full time quota."""
        return self.gpu_time_ms / 1000.0 / self.scale(partition_pct) + self.host_time_ms / 1000.0

    def expected_rate(
        self, partition_pct: float, quota: float = 1.0, gpu_factor: float = 1.0
    ) -> float:
        """Analytic saturated throughput (req/s) at (S, Q).

        Temporal quota caps GPU residency per wall second at ``quota``; the
        closed-loop serve path additionally pays host time per request.  The
        binding constraint is whichever is smaller.  ``gpu_factor`` rescales
        the calibrated GPU time for a non-V100 device (see
        :func:`repro.models.scaling.gpu_type_factor`); host time is CPU-side
        and does not scale with the GPU type.
        """
        if not 0 < quota <= 1.0:
            raise ValueError(f"quota {quota} outside (0, 1]")
        if gpu_factor <= 0:
            raise ValueError(f"gpu_factor {gpu_factor} must be positive")
        gpu_s = self.gpu_time_ms / 1000.0 / self.scale(partition_pct) / gpu_factor
        quota_bound = quota / gpu_s
        duty_bound = 1.0 / (gpu_s + self.host_time_ms / 1000.0)
        return min(quota_bound, duty_bound)

    def expected_latency_s(
        self,
        partition_pct: float,
        quota: float = 1.0,
        window: float = 0.1,
        gpu_factor: float = 1.0,
    ) -> float:
        """Queue-free *tail* latency bound at (S, Q).

        A pod with quota ``q`` may stall for ``(1-q)·window`` every time it
        exhausts a window's allowance; a request needing ``gpu_s`` of GPU
        time crosses up to ``ceil(gpu_s / (q·window))`` such boundaries.
        This is the latency the scheduler's SLO filter reasons about — it is
        exactly why tight-SLO functions must be given full time quotas and
        isolated spatially instead (the paper's central design point).
        """
        if not 0 < quota <= 1.0:
            raise ValueError(f"quota {quota} outside (0, 1]")
        if window <= 0:
            raise ValueError("window must be positive")
        if gpu_factor <= 0:
            raise ValueError(f"gpu_factor {gpu_factor} must be positive")
        gpu_s = self.gpu_time_ms / 1000.0 / self.scale(partition_pct) / gpu_factor
        stalls = 0 if quota >= 1.0 else math.ceil(gpu_s / (quota * window))
        return gpu_s + stalls * (1.0 - quota) * window + self.host_time_ms / 1000.0

    def sm_activity(self, partition_pct: float) -> float:
        """Occupancy contribution of one running burst at this partition."""
        activity = self.sm_residency * (partition_pct / 100.0) ** self.occupancy_exponent
        return min(activity, partition_pct / 100.0)

    # -- plan generation --------------------------------------------------------
    def make_plan(
        self,
        partition_pct: float,
        rng: np.random.Generator | None = None,
        gpu_factor: float = 1.0,
    ) -> InferencePlan:
        """Generate the kernel-burst plan of one request at ``partition_pct``.

        With ``rng=None`` the plan is deterministic (used by the profiler's
        repeatability tests); otherwise per-request lognormal jitter with the
        profile's CV is applied to the GPU time and burst split.
        ``gpu_factor`` rescales the calibrated GPU-resident time for the
        device type the pod landed on (1.0 = the V100 the zoo was profiled
        on); host gaps are CPU-side and stay fixed.
        """
        if gpu_factor <= 0:
            raise ValueError(f"gpu_factor {gpu_factor} must be positive")
        scale = self.scale(partition_pct)
        total_gpu = self.gpu_time_ms / 1000.0 / scale / gpu_factor
        n_bursts = self.n_bursts
        if rng is not None and self.jitter_cv > 0:
            sigma = math.sqrt(math.log(1.0 + self.jitter_cv**2))
            total_gpu *= float(rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma))
            raw = rng.uniform(0.7, 1.3, size=n_bursts)
            # numpy's pairwise sum: a left-to-right Python sum differs from
            # it in the last bit for 8 or more bursts.
            raw_total = float(raw.sum())
            durations = [total_gpu * (w / raw_total) for w in raw.tolist()]
        else:
            durations = [total_gpu * (1.0 / n_bursts)] * n_bursts
        host_total = self.host_time_ms / 1000.0
        per_gap = 0.7 * host_total / n_bursts
        return InferencePlan(
            durations=durations,
            sm_activity=self.sm_activity(partition_pct),
            host_gaps=[per_gap] * n_bursts,
            pre_gap=0.3 * host_total,
        )
