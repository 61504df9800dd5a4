"""Kernel-burst representation of DL inference work.

Following Gemini's kernel-burst abstraction (paper §3.3.2), one inference
request is a sequence of *bursts* — stretches of back-to-back CUDA kernels
ended by a host-side synchronisation (``cuCtxSynchronize`` /
``cuMemcpyDtoH``) — separated by host gaps (pre/post-processing, launch
overhead).  The FaST hook library requests a time token before each burst and
reports measured GPU residency after the sync.

An :class:`InferencePlan` is plain data (per-burst durations, one occupancy
figure, host gaps); the driver builds the one :class:`KernelBurst` of each
launch, stamping it with the launching context's MPS partition.
"""

from __future__ import annotations

import dataclasses
import typing as _t


@dataclasses.dataclass(slots=True)
class KernelBurst:
    """One GPU-resident burst of kernels.

    ``duration`` is the GPU-resident time this burst needs *given the SM
    allocation it was planned for*, assuming no other tenant is running; the
    device stretches it under over-subscription (fluid sharing).
    ``sm_demand`` is the MPS partition in percent of SMs (100 when
    unpartitioned) and bounds concurrency.  ``sm_activity`` is the fraction of
    the *whole GPU's* SM capacity the burst's kernels actually keep busy
    (= occupancy contribution; always ≤ sm_demand/100).
    """

    duration: float
    sm_demand: float
    sm_activity: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"burst duration {self.duration} < 0")
        if not 0 < self.sm_demand <= 100:
            raise ValueError(f"sm_demand {self.sm_demand} outside (0, 100]")
        if not 0 <= self.sm_activity <= 1:
            raise ValueError(f"sm_activity {self.sm_activity} outside [0, 1]")
        if self.sm_activity > self.sm_demand / 100 + 1e-12:
            raise ValueError(
                f"sm_activity {self.sm_activity} exceeds partition {self.sm_demand}%"
            )


@dataclasses.dataclass(slots=True)
class InferencePlan:
    """The full execution plan of one inference request on one replica.

    ``durations`` are the bursts' GPU-resident times and alternate with
    ``host_gaps``: gap[i] is host work *after* burst[i] (the final gap is
    response serialisation).  ``sm_activity`` is every burst's occupancy
    contribution at the partition the plan was made for; the partition
    itself is the launching context's (see :meth:`~repro.gpu.driver.CudaDriver.launch_burst`).
    ``pre_gap`` is host work before the first kernel launch (input decode,
    tensor staging).
    """

    durations: list[float]
    sm_activity: float
    host_gaps: list[float]
    pre_gap: float = 0.0

    def __post_init__(self) -> None:
        if len(self.host_gaps) != len(self.durations):
            raise ValueError(
                f"need one host gap per burst: {len(self.durations)} bursts, "
                f"{len(self.host_gaps)} gaps"
            )
        if self.pre_gap < 0 or any(g < 0 for g in self.host_gaps):
            raise ValueError("host gaps must be non-negative")

    @property
    def gpu_time(self) -> float:
        """Total GPU-resident time (dedicated, unstretched)."""
        return sum(self.durations)

    @property
    def host_time(self) -> float:
        return self.pre_gap + sum(self.host_gaps)

    def steps(self) -> _t.Iterator[tuple[float, float]]:
        """Iterate (burst duration, following host gap) pairs."""
        return zip(self.durations, self.host_gaps)
