"""Time tokens (paper §3.3.2).

A token is the permission to launch CUDA kernels; it stays valid until the
backend invalidates it — because the pod consumed its window quota, the
window rolled over, or the pod was deregistered.  Holding a token also holds
the pod's SM partition in the allocation adapter.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(slots=True)
class TimeToken:
    """One dispatched time token."""

    pod_id: str
    sm_partition: float
    valid: bool = True

    def invalidate(self) -> None:
        self.valid = False
