#!/usr/bin/env python
"""Quickstart: share one V100 between two inference functions.

Deploys a ResNet image-classification function (2 pods at 24% SMs) and a
BERT QA function (1 pod at 50% SMs) on a single simulated V100 under
FaST-GShare, drives both with concurrent Poisson traffic, and prints
throughput, latency percentiles, SLO compliance, and GPU metrics.

Run:  python examples/quickstart.py
"""

from repro.scenario import (
    AutoscalerSpec,
    MeasurementSpec,
    Scenario,
    ScenarioFunction,
    WorkloadSpec,
    run_scenario,
)


def function(name: str, model: str, slo_ms: float, pods, rps: float) -> ScenarioFunction:
    """``pods`` static (SM partition %, time quota) pods under ``rps`` Poisson
    arrivals for 30 s."""
    return ScenarioFunction(
        name=name,
        model=model,
        slo_ms=slo_ms,
        model_sharing=False,
        pods=tuple(pods),
        workload=WorkloadSpec(kind="constant", rps=rps, duration=30.0),
    )


def main() -> None:
    # Explicit spatio-temporal configs: (SM partition %, time quota).
    # Chosen to be SLO-feasible: a quota < 1 pod stalls up to (1-q)·window at
    # each window boundary, so tight-SLO functions get generous quotas and
    # small partitions.  The Maximal Rectangles placer packs all three pods
    # onto the single GPU, and both functions load it at the same time.
    scenario = Scenario(
        name="quickstart",
        seed=42,
        functions=(
            function("classify", "resnet50", 69.0, [(24.0, 0.8)] * 2, rps=55.0),
            function("qa", "bert", 150.0, [(50.0, 0.8)], rps=25.0),
        ),
        autoscaler=AutoscalerSpec(enabled=False),
        measurement=MeasurementSpec(drain_s=0.0),
    )
    report = run_scenario(scenario)
    print(report.summary())
    for outcome in report.functions:
        run = outcome.run
        print(
            f"  {outcome.name}: {run.throughput:.1f} req/s  p50 {run.p50_ms:.1f} ms  "
            f"p99 {run.p99_ms:.1f} ms"
        )

    # GPU metrics and the 2D resource packing.
    print("\nGPU utilization, SM occupancy and 2D-resource usage (quota x SMs):")
    allocated = report.utilization[-1].alloc_by_node
    for name, util, occ in report.functions[0].run.node_metrics:
        print(
            f"  {name}: util {util:5.1f}%  SM occupancy {occ:5.2f}%  "
            f"{100 * allocated.get(name, 0.0):.1f}% of the resource rectangle allocated"
        )


if __name__ == "__main__":
    main()
