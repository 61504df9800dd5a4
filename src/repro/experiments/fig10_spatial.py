"""Fig. 10 — spatial sharing performance (4 metric panels × 3 models).

For ResNet, RNNT, and GNMT, sweep the replica count 2→8 under three
configurations on one V100:

* ``SMs-24%`` — FaST partitions of 24% (over-subscribable: 8×24 = 192%);
* ``SMs-12%`` — FaST partitions of 12% (8×12 = 96% fits concurrently);
* ``Racing``  — no partitions, no tokens: pods race for the device.

Each cell reports saturated throughput, P95 tail latency, GPU utilization,
and SM occupancy — the four panels of the paper's figure.  Expected shape:
spatial sharing wins every panel by a growing margin as replicas increase.
Each cell is a :func:`saturated_gpu` scenario, as are Fig. 1's, the
headline's time-sharing rows and ablation A2.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.scenario import (
    AutoscalerSpec,
    ClusterSpec,
    MeasurementSpec,
    Scenario,
    ScenarioFunction,
    WorkloadSpec,
    run_scenario,
)

FIG10_MODELS: tuple[str, ...] = ("resnet50", "rnnt", "gnmt")
FIG10_CONFIGS: tuple[tuple[str, str, float], ...] = (
    ("SMs-24%", "fast", 24.0),
    ("SMs-12%", "fast", 12.0),
    ("Racing", "racing", 100.0),
)
FIG10_REPLICAS: tuple[int, ...] = (2, 4, 6, 8)


@dataclasses.dataclass(frozen=True, slots=True)
class Fig10Cell:
    model: str
    config: str
    replicas: int
    throughput: float
    p95_ms: float
    gpu_utilization: float
    sm_occupancy: float


@dataclasses.dataclass(frozen=True, slots=True)
class Fig10Result:
    cells: list[Fig10Cell]

    def cell(self, model: str, config: str, replicas: int) -> Fig10Cell:
        for cell in self.cells:
            if (cell.model, cell.config, cell.replicas) == (model, config, replicas):
                return cell
        raise KeyError((model, config, replicas))

    def series(self, model: str, config: str, metric: str) -> list[float]:
        cells = sorted(
            (c for c in self.cells if c.model == model and c.config == config),
            key=lambda c: c.replicas,
        )
        return [getattr(c, metric) for c in cells]


def saturated_gpu(
    label: str, sharing: str, pods, concurrency: int, duration: float, seed: int, **function
) -> Scenario:
    """One function (``function``: ``ScenarioFunction`` keywords) whose
    ``pods`` are pinned to one GPU, which they may over-subscribe, under
    ``concurrency`` k6-style virtual users for ``duration`` s; no drain."""
    workload = WorkloadSpec(kind="closed", concurrency=concurrency, duration=duration)
    pinned = {"name": "fn", "model_sharing": False, **function, "pods": tuple(pods), "node": 0}
    return Scenario(
        name=label,
        seed=seed,
        cluster=ClusterSpec(nodes=1, sharing=sharing),
        functions=(ScenarioFunction(workload=workload, **pinned),),
        autoscaler=AutoscalerSpec(enabled=False),
        measurement=MeasurementSpec(drain_s=0.0),
    )


def measure(
    model: str, mode: str, sm: float, replicas: int, duration: float, seed: int
) -> Fig10Cell:
    """One cell: ``replicas`` pods at ``sm``% SMs, full quota, on one GPU."""
    # Model sharing keeps 8 replicas of the larger models within 16 GB
    # (without it, 8 GNMT pods would not fit — §5.5's point).  2 VUs per pod
    # keep every pod saturated with bounded queueing (the paper's latencies
    # are finite).
    pods = [(sm, 1.0)] * replicas
    scenario = saturated_gpu(
        "fig10", mode, pods, 2 * replicas, duration, seed, model=model, model_sharing=True
    )
    report = run_scenario(scenario).functions[0].run
    ((_, util, occ),) = report.node_metrics
    return Fig10Cell(
        model=model,
        config="Racing" if mode == "racing" else f"SMs-{sm:.0f}%",
        replicas=replicas,
        throughput=report.throughput,
        p95_ms=report.p95_ms,
        gpu_utilization=util,
        sm_occupancy=occ,
    )


def run(
    models: _t.Sequence[str] = FIG10_MODELS,
    replicas: _t.Sequence[int] = FIG10_REPLICAS,
    duration: float = 20.0,
    seed: int = 42,
    quick: bool = False,
) -> Fig10Result:
    if quick:
        duration = 6.0
        replicas = (2, 8)
    cells = []
    for model in models:
        for _label, mode, sm in FIG10_CONFIGS:
            for n in replicas:
                cells.append(measure(model, mode, sm, n, duration, seed))
    return Fig10Result(cells=cells)


def format_result(result: Fig10Result) -> str:
    lines = ["Fig. 10 — spatial sharing performance (throughput / P95 / util / SM occ)"]
    models = sorted({c.model for c in result.cells})
    configs = [label for label, _, _ in FIG10_CONFIGS]
    replicas = sorted({c.replicas for c in result.cells})
    for model in models:
        lines.append(f"\n  {model}")
        lines.append("    config     " + "".join(f"{f'n={n}':>26}" for n in replicas))
        for config in configs:
            row = [f"    {config:<11}"]
            for n in replicas:
                cell = result.cell(model, config, n)
                row.append(
                    f"{cell.throughput:7.1f}r/s {cell.p95_ms:6.0f}ms "
                    f"{cell.gpu_utilization:4.0f}% {cell.sm_occupancy:4.1f}%"
                )
            lines.append(" ".join(row))
    return "\n".join(lines)
