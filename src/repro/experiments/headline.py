"""The headline comparison (abstract / §1 / §5).

"Compared to the time sharing mechanism, FaST-GShare can improve throughput
by 3.15x, GPU utilization by 1.34x, and SM occupancy by 3.13x on average."

The paper's "improve by Nx" is a relative *increase* (new/old − 1):
ResNet's 296.8 vs 71.37 req/s is quoted as "at least 3.15x" (4.16 − 1.01);
Fig. 11's 88.64% vs mean 37.85% utilization as "1.34 times" (2.34 − 1).
We report both the ratios and the increases.

Throughput rows compare 8 spatial pods at 12% SMs (Fig. 10's cell) against
the time-sharing ceiling (one racing pod's saturated rate, per §5.3);
utilization/occupancy come from the Fig. 11 scheduler experiment.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.experiments import fig10_spatial, fig11_scheduler
from repro.platform import FaSTGShare

HEADLINE_MODELS: tuple[str, ...] = ("resnet50", "rnnt", "gnmt")

#: §5.3's reported numbers: model -> (spatial 8x12% rps, time-sharing rps).
PAPER_THROUGHPUTS: dict[str, tuple[float, float]] = {
    "resnet50": (296.8, 71.37),
    "rnnt": (43.24, 12.51),
    "gnmt": (43.79, 28.85),
}


@dataclasses.dataclass(frozen=True, slots=True)
class ThroughputRow:
    model: str
    spatial_rps: float
    timeshare_rps: float

    @property
    def ratio(self) -> float:
        return self.spatial_rps / self.timeshare_rps

    @property
    def increase(self) -> float:
        return self.ratio - 1.0


@dataclasses.dataclass(frozen=True, slots=True)
class HeadlineResult:
    throughput: list[ThroughputRow]
    utilization_increase: float
    occupancy_increase: float

    @property
    def mean_throughput_increase(self) -> float:
        return sum(r.increase for r in self.throughput) / len(self.throughput)


def _throughput_row(model: str, duration: float, seed: int) -> ThroughputRow:
    spatial = fig10_spatial.measure(model, "fast", 12.0, 8, duration, seed)
    racing = FaSTGShare.build(nodes=1, sharing="racing", seed=seed)
    racing.register_function("fn", model=model)
    racing.deploy("fn", configs=[(100, 1.0)], node=0)
    timeshare_rps = racing.run_closed_loop("fn", concurrency=4, duration=duration).throughput
    return ThroughputRow(model=model, spatial_rps=spatial.throughput, timeshare_rps=timeshare_rps)


def run(
    models: _t.Sequence[str] = HEADLINE_MODELS,
    duration: float = 20.0,
    seed: int = 42,
    quick: bool = False,
) -> HeadlineResult:
    if quick:
        duration = 6.0
    rows = [_throughput_row(model, duration, seed) for model in models]
    fig11 = fig11_scheduler.run(duration=duration, seed=seed, quick=quick)
    return HeadlineResult(
        throughput=rows,
        utilization_increase=fig11.utilization_increase,
        occupancy_increase=fig11.occupancy_increase,
    )


def format_result(result: HeadlineResult) -> str:
    lines = [
        "Headline — FaST-GShare vs time sharing",
        "  model      spatial 8x12%   time-share   ratio   increase   (paper)",
    ]
    for row in result.throughput:
        paper_s, paper_t = PAPER_THROUGHPUTS.get(row.model, (float("nan"),) * 2)
        lines.append(
            f"  {row.model:<9} {row.spatial_rps:10.1f} r/s {row.timeshare_rps:9.1f} r/s "
            f"{row.ratio:6.2f}x {row.increase:7.2f}x   "
            f"({paper_s:.1f} vs {paper_t:.1f})"
        )
    lines.append(
        f"  mean throughput increase: {result.mean_throughput_increase:.2f}x (paper: 3.15x avg)"
    )
    lines.append(
        f"  GPU utilization increase: {result.utilization_increase:.2f}x (paper: 1.34x)"
    )
    lines.append(
        f"  SM occupancy increase:    {result.occupancy_increase:.2f}x (paper: 3.13x)"
    )
    return "\n".join(lines)
