"""Fig. 11 — GPU utilization/occupancy under the two scheduling mechanisms.

Workload: 4 ResNet pods at (12% SMs, 40% quota), 2 RNNT pods at (24%, 40%),
2 BERT pods at (50%, 60%), on a 4-GPU cluster.

* Time sharing (KubeShare-like) has no spatial dimension: first fit on
  each node's summed quota needs **all four GPUs** (Σ quota = 3.6), each
  ending up with low utilization and occupancy (paper: 28.9-47.5% util,
  3.1-9.4% occ).
* FaST-Scheduler packs the eight 2D rectangles onto **one GPU**
  (Σ area = 98.4%), concentrating load (paper: 88.64% util, 25.3% occ).

:func:`bench_sweep` (a two-cell ``sharing`` sweep, committed as
``examples/benches/fig11{,_quick}.json``) is the one definition of the
comparison; :func:`run` reads the panels off each cell's scenario report.
"""

from __future__ import annotations

import dataclasses

from repro.models import get_model
from repro.scenario import (
    AutoscalerSpec,
    ClusterSpec,
    MeasurementSpec,
    Scenario,
    ScenarioFunction,
    WorkloadSpec,
    run_scenario,
)
from repro.sweep import Sweep, SweepAssertion, SweepAxis

#: (function, model, pods, sm%, quota) — the paper's Fig. 11 deployment,
#: largest quota first so first fit on quota reproduces a feasible 4-GPU
#: layout (first-fit-decreasing).
FIG11_PODS: tuple[tuple[str, str, int, float, float], ...] = (
    ("bert", "bert", 2, 50.0, 0.6),
    ("resnet", "resnet50", 4, 12.0, 0.4),
    ("rnnt", "rnnt", 2, 24.0, 0.4),
)


@dataclasses.dataclass(frozen=True, slots=True)
class Fig11Side:
    mechanism: str
    node_utilization: list[float]  # per GPU, %
    node_occupancy: list[float]  # per GPU, %
    gpus_used: int
    total_throughput: float


@dataclasses.dataclass(frozen=True, slots=True)
class Fig11Result:
    time_sharing: Fig11Side
    fast_scheduler: Fig11Side

    @property
    def utilization_increase(self) -> float:
        """Active-GPU util ratio − 1 (the paper's "1.34x increase")."""
        ts = [u for u in self.time_sharing.node_utilization if u > 0.5]
        fast = [u for u in self.fast_scheduler.node_utilization if u > 0.5]
        if not ts or not fast:
            return 0.0
        return (sum(fast) / len(fast)) / (sum(ts) / len(ts)) - 1.0

    @property
    def occupancy_increase(self) -> float:
        """Active-GPU occupancy ratio − 1 (the paper's "3.13x increase")."""
        ts_util = self.time_sharing.node_utilization
        ts = [o for u, o in zip(ts_util, self.time_sharing.node_occupancy) if u > 0.5]
        fast_util = self.fast_scheduler.node_utilization
        fast = [o for u, o in zip(fast_util, self.fast_scheduler.node_occupancy) if u > 0.5]
        if not ts or not fast:
            return 0.0
        return (sum(fast) / len(fast)) / (sum(ts) / len(ts)) - 1.0


def bench_sweep(
    quick: bool, seed: int = 42, duration: float = 40.0, load_scale: float = 0.62
) -> Sweep:
    """The mechanism comparison: one ``sharing`` axis, autoscaler off.

    Each function offers Poisson load at ``load_scale`` times its pods'
    quota-bound capacity; 0.62 reproduces the paper's time-sharing
    utilization band (28.9-47.5% per GPU).
    """
    if quick:
        duration = 10.0
    functions = tuple(
        ScenarioFunction(
            name=function,
            model=model,
            model_sharing=False,
            pods=((sm, quota),) * pods,
            workload=WorkloadSpec(
                kind="constant",
                rps=load_scale * (pods * get_model(model).expected_rate(sm, quota)),
                duration=duration,
            ),
        )
        for function, model, pods, sm, quota in FIG11_PODS
    )
    return Sweep(
        name="fig11-sharing",
        base=Scenario(
            name="fig11",
            seed=seed,
            cluster=ClusterSpec(nodes=4),
            functions=functions,
            autoscaler=AutoscalerSpec(enabled=False),
            measurement=MeasurementSpec(drain_s=0.0),
        ),
        axes=(SweepAxis(axis="sharing", values=("timeshare", "fast")),),
        description="Fig. 11: time sharing vs the FaST-Scheduler on one static pod set",
        asserts=(
            SweepAssertion(
                cell="sharing=fast", vs=("sharing=timeshare",), lt=("mean_gpus", "gpu_seconds")
            ),
        ),
    )


def run(
    duration: float = 40.0, seed: int = 42, quick: bool = False, load_scale: float = 0.62
) -> Fig11Result:
    """Run both cells of :func:`bench_sweep` (time sharing first) and read
    each mechanism's panels off its scenario report."""
    sides = []
    for cell in bench_sweep(quick, seed, duration, load_scale).cells():
        report = run_scenario(cell.scenario)
        node_metrics = report.functions[0].run.node_metrics
        sides.append(
            Fig11Side(
                mechanism=cell.scenario.cluster.sharing,
                node_utilization=[util for _, util, _ in node_metrics],
                node_occupancy=[occ for _, _, occ in node_metrics],
                gpus_used=report.peak_gpus,
                total_throughput=report.completed / report.horizon,
            )
        )
    return Fig11Result(*sides)


def format_result(result: Fig11Result) -> str:
    lines = ["Fig. 11 — per-GPU utilization / SM occupancy by scheduling mechanism"]
    for side in (result.time_sharing, result.fast_scheduler):
        label = "time sharing" if side.mechanism == "timeshare" else "FaST-Scheduler"
        lines.append(
            f"  {label} (GPUs used: {side.gpus_used}, throughput {side.total_throughput:.1f} req/s)"
        )
        for i, (util, occ) in enumerate(zip(side.node_utilization, side.node_occupancy)):
            lines.append(f"    GPU {i}: util {util:5.1f}%   SM occ {occ:5.2f}%")
    lines.append(
        f"  active-GPU increases: utilization +{result.utilization_increase:.2f}x, "
        f"occupancy +{result.occupancy_increase:.2f}x "
        "(paper: +1.34x and +3.13x)"
    )
    return "\n".join(lines)
