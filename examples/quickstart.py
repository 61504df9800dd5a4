#!/usr/bin/env python
"""Quickstart: share one V100 between two inference functions.

Deploys a ResNet image-classification function (4 pods at 12% SMs) and a
BERT QA function (1 pod at 50% SMs) on a single simulated V100 under
FaST-GShare, drives both with Poisson traffic, and prints throughput,
latency percentiles, SLO compliance, and GPU metrics.

Run:  python examples/quickstart.py
"""

from repro import FaSTGShare


def main() -> None:
    platform = FaSTGShare.build(nodes=1, gpu="V100", sharing="fast", seed=42)

    # Register two functions (the model zoo carries calibrated MLPerf models).
    platform.register_function("classify", model="resnet50", slo_ms=69)
    platform.register_function("qa", model="bert", slo_ms=150)

    # Explicit spatio-temporal configs: (SM partition %, time quota).
    # Chosen to be SLO-feasible: a quota < 1 pod stalls up to (1-q)·window at
    # each window boundary, so tight-SLO functions get generous quotas and
    # small partitions.  The Maximal Rectangles placer packs all three pods
    # onto the single GPU.
    platform.deploy("classify", configs=[(24, 0.8)] * 2)
    platform.deploy("qa", configs=[(50, 0.8)])

    # Drive the classifier open-loop at 55 req/s for 30 s and report.
    report = platform.run_workload("classify", rps=55, duration=30.0)
    print("=== classify ===")
    print(report.summary())

    # The QA function shares the same GPU without interference.
    report_qa = platform.run_workload("qa", rps=25, duration=30.0)
    print("\n=== qa ===")
    print(report_qa.summary())

    # Inspect the 2D resource packing.
    print("\nGPU 2D-resource usage (quota x SMs):")
    for name, share in platform.placement.utilized_area_by_node().items():
        print(f"  {name}: {100 * share:.1f}% of the resource rectangle allocated")


if __name__ == "__main__":
    main()
