#!/usr/bin/env python
"""Why spatio-temporal beats time-only sharing (paper Figs. 1, 9, 10).

Three mini-studies on one simulated V100:

1. the motivation numbers — a time-shared GPU looks "busy" (>95% util) while
   its SMs are mostly idle (<10% occupancy);
2. isolation — an elastic-quota neighbour perturbs a time-shared function,
   but not a spatially partitioned one;
3. the throughput/latency win of 8x12% MPS partitions over racing.

Run:  python examples/spatial_vs_temporal.py
"""

from repro.experiments import fig01_motivation, fig09_isolation, fig10_spatial


def motivation() -> None:
    print("=== 1. Busy but empty: utilization vs SM occupancy ===")
    result = fig01_motivation.run(duration=15.0, seed=1)
    for row in (result.device_plugin, result.time_sharing):
        label = f"{row.mechanism} ({row.pods} pod{'s' if row.pods > 1 else ''})"
        print(f"  {label:<24} {row.throughput:7.1f} req/s   "
              f"util {row.gpu_utilization:5.1f}%   SM occupancy {row.sm_occupancy:4.2f}%")


def isolation() -> None:
    print("\n=== 2. Isolation: ResNet next to a bursty RNNT neighbour ===")
    result = fig09_isolation.run(phase=12.0)
    for run_ in (result.time_sharing, result.spatio_temporal):
        label = "time-only sharing" if run_.mechanism == "time" else "spatio-temporal "
        print(f"  {label}  ResNet {run_.resnet_off_mean:5.1f} req/s alone, "
              f"{run_.resnet_on_mean:5.1f} req/s with neighbour "
              f"({100 * run_.interference_drop:4.1f}% drop)")


def spatial_win() -> None:
    print("\n=== 3. Eight 12% partitions vs racing (ResNet) ===")
    for label, mode, sm in (("8 x 12% MPS partitions", "fast", 12.0),
                            ("8 racing pods", "racing", 100.0)):
        cell = fig10_spatial.measure("resnet50", mode, sm, 8, duration=15.0, seed=1)
        print(f"  {label:<24} {cell.throughput:7.1f} req/s   p95 {cell.p95_ms:6.1f} ms")


def main() -> None:
    motivation()
    isolation()
    spatial_win()


if __name__ == "__main__":
    main()
