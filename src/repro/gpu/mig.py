"""Multi-Instance GPU (MIG) profiles.

The paper (§2.3) contrasts FaST-GShare with Ampere MIG — "hardware-based
partitioning … limited to only seven pre-defined resource configurations" —
and notes the architecture is compatible with MIG: multiple MPS clients can
run inside each MIG instance.  This module models exactly that surface: the
A100 profile catalogue, placement-rule validation (slice budget), and
carving a :class:`~repro.gpu.device.GPUDevice` into instance sub-devices on
which the usual MPS/FaST stack runs.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.gpu.device import GPUDevice
from repro.gpu.specs import GPUSpec

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


@dataclasses.dataclass(frozen=True, slots=True)
class MIGProfile:
    """One of the pre-defined MIG instance shapes (A100-40GB catalogue)."""

    name: str
    compute_slices: int  # of 7
    memory_slices: int   # of 8
    memory_mb: int
    max_instances: int


#: The seven A100 profiles the paper refers to.
A100_MIG_PROFILES: dict[str, MIGProfile] = {
    "1g.5gb": MIGProfile("1g.5gb", 1, 1, 4864, 7),
    "1g.5gb+me": MIGProfile("1g.5gb+me", 1, 1, 4864, 1),
    "1g.10gb": MIGProfile("1g.10gb", 1, 2, 9856, 4),
    "2g.10gb": MIGProfile("2g.10gb", 2, 2, 9856, 3),
    "3g.20gb": MIGProfile("3g.20gb", 3, 4, 19968, 2),
    "4g.20gb": MIGProfile("4g.20gb", 4, 4, 19968, 1),
    "7g.40gb": MIGProfile("7g.40gb", 7, 8, 39936, 1),
}

#: Total compute slices on an Ampere device.
TOTAL_COMPUTE_SLICES = 7
TOTAL_MEMORY_SLICES = 8


class MIGConfigError(ValueError):
    """Invalid MIG partition request."""


@dataclasses.dataclass(slots=True)
class MIGInstance:
    """A carved GPU instance: behaves as a smaller GPUDevice."""

    profile: MIGProfile
    device: GPUDevice
    index: int


class MIGPartitioner:
    """Carves a physical A100 into MIG instances.

    Each instance gets its own :class:`GPUDevice` whose SM count and memory
    are the profile's share — the rest of the stack (MPS server, FaST
    backend) runs per instance unchanged, which is precisely the paper's
    compatibility claim.
    """

    def __init__(self, engine: "Engine", parent: GPUSpec, name: str = "a100"):
        if parent.sm_count % TOTAL_COMPUTE_SLICES != 0:
            # A100: 108 SMs total but 98 usable across 7 GPCs of 14; model as
            # sm_count // 7 slices — reject specs that cannot slice evenly.
            raise MIGConfigError(
                f"{parent.name}: {parent.sm_count} SMs not divisible into "
                f"{TOTAL_COMPUTE_SLICES} slices"
            )
        self.engine = engine
        self.parent = parent
        self.name = name
        self.instances: list[MIGInstance] = []

    @property
    def used_compute_slices(self) -> int:
        return sum(i.profile.compute_slices for i in self.instances)

    def validate(self, profile_names: _t.Sequence[str]) -> list[MIGProfile]:
        """Check a whole configuration against the placement rules."""
        profiles = []
        for name in profile_names:
            try:
                profiles.append(A100_MIG_PROFILES[name])
            except KeyError:
                known = ", ".join(sorted(A100_MIG_PROFILES))
                raise MIGConfigError(f"unknown MIG profile {name!r}; known: {known}") from None
        if sum(p.compute_slices for p in profiles) > TOTAL_COMPUTE_SLICES:
            raise MIGConfigError("configuration exceeds 7 compute slices")
        if sum(p.memory_slices for p in profiles) > TOTAL_MEMORY_SLICES:
            raise MIGConfigError("configuration exceeds 8 memory slices")
        for profile in set(profiles):
            if profiles.count(profile) > profile.max_instances:
                raise MIGConfigError(
                    f"{profile.name}: at most {profile.max_instances} instances"
                )
        return profiles

    def create_instance(self, profile_name: str) -> MIGInstance:
        """Carve one instance; raises when the slice budget is exhausted."""
        profile = self.validate(
            [i.profile.name for i in self.instances] + [profile_name]
        )[-1]
        sm_per_slice = self.parent.sm_count // TOTAL_COMPUTE_SLICES
        spec = GPUSpec(
            name=f"{self.parent.name}-{profile.name}",
            sm_count=sm_per_slice * profile.compute_slices,
            tensor_cores=self.parent.tensor_cores * profile.compute_slices // TOTAL_COMPUTE_SLICES,
            memory_mb=profile.memory_mb,
            reserved_mb=self.parent.reserved_mb // TOTAL_COMPUTE_SLICES + 1,
        )
        index = len(self.instances)
        device = GPUDevice(self.engine, spec, name=f"{self.name}/mig{index}")
        instance = MIGInstance(profile=profile, device=device, index=index)
        self.instances.append(instance)
        return instance

    def destroy_instance(self, instance: MIGInstance) -> None:
        if instance.device.active_count:
            raise MIGConfigError(
                f"{instance.device.name}: cannot destroy with kernels resident"
            )
        self.instances.remove(instance)
