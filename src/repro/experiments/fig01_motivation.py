"""Fig. 1 — motivation: GPU utilization and SM occupancy under extreme load.

(a) Kubernetes device plugin: one pod owns the whole V100; even saturated,
    utilization stays moderate (host gaps) and SM occupancy tiny (a ResNet
    kernel cannot fill 80 SMs).
(b) Time sharing (KubeShare-style): eight over-subscribed full-GPU pods keep
    utilization above ~95%, yet SM occupancy stays below 10% — kernels
    serialise, so at any instant only one model's kernels are resident.
"""

from __future__ import annotations

import dataclasses

from repro.platform import FaSTGShare


@dataclasses.dataclass(frozen=True, slots=True)
class MechanismResult:
    mechanism: str
    pods: int
    throughput: float
    gpu_utilization: float
    sm_occupancy: float


@dataclasses.dataclass(frozen=True, slots=True)
class Fig01Result:
    device_plugin: MechanismResult
    time_sharing: MechanismResult


def _saturate(platform: FaSTGShare, pods: int, duration: float) -> MechanismResult:
    platform.register_function("classify", model="resnet50")
    platform.deploy("classify", configs=[(100, 1.0)] * pods, node=0)
    report = platform.run_closed_loop("classify", concurrency=max(4, 2 * pods), duration=duration)
    (_, util, occ), = report.node_metrics
    return MechanismResult(
        mechanism=platform.cluster_spec.sharing,
        pods=pods,
        throughput=report.throughput,
        gpu_utilization=util,
        sm_occupancy=occ,
    )


def run(duration: float = 30.0, seed: int = 42, quick: bool = False) -> Fig01Result:
    if quick:
        duration = min(duration, 8.0)
    exclusive = FaSTGShare.build(nodes=1, sharing="exclusive", seed=seed)
    plugin = _saturate(exclusive, pods=1, duration=duration)

    racing = FaSTGShare.build(nodes=1, sharing="racing", seed=seed)
    timesharing = _saturate(racing, pods=8, duration=duration)
    return Fig01Result(
        device_plugin=dataclasses.replace(plugin, mechanism="device-plugin"),
        time_sharing=dataclasses.replace(timesharing, mechanism="time-sharing"),
    )


def format_result(result: Fig01Result) -> str:
    lines = ["Fig. 1 — GPU utilization / SM occupancy under extreme workload"]
    for row in (result.device_plugin, result.time_sharing):
        lines.append(
            f"  {row.mechanism:<14} pods={row.pods}  throughput={row.throughput:7.2f} req/s  "
            f"util={row.gpu_utilization:5.1f}%  SM occ={row.sm_occupancy:5.2f}%"
        )
    lines.append(
        "  paper shape: time sharing pushes util >95% while occupancy stays <10%"
    )
    return "\n".join(lines)
