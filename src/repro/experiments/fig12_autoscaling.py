"""Fig. 12 — auto-scaling to meet the SLO under a stepped workload.

A single ResNet function (SLO 69 ms) faces a 0→100 req/s staircase trace.
The FaST-Scheduler runs the Heuristic Scaling Algorithm against the profile
database and places pods with MRA.  The control path is the predictive
autoscaler's **reactive degenerate** (``policy="reactive"``: no
forecasters, no pre-warming) — the same controller the predictive policies
run through, so this figure exercises exactly the code path the prewarm
bench baselines against.  The experiment is expressed as a declarative
:class:`~repro.scenario.Scenario` (see :func:`build_scenario`) evaluated by
``FaSTGShare.run_scenario`` — the same path fig14/fig15 and the ``scenario``
CLI replay.  The paper's acceptance bar: the SLO violation ratio stays
below ~1% overall while the replica count tracks the workload.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.faas.slo import violation_ratio, violation_series
from repro.faas.workload import StepTrace
from repro.platform import FaSTGShare
from repro.scenario import (
    AutoscalerSpec,
    ClusterSpec,
    MeasurementSpec,
    Scenario,
    ScenarioFunction,
    WorkloadSpec,
)


@dataclasses.dataclass(frozen=True, slots=True)
class Fig12Result:
    times: np.ndarray
    offered_rps: np.ndarray
    completed_rps: np.ndarray
    replica_counts: np.ndarray
    violation_times: np.ndarray
    violation_ratios: np.ndarray
    overall_violation_ratio: float
    max_replicas: int
    slo_ms: float
    completed: int
    submitted: int


#: The function's SLO (ms), the tick interval (s) and the SLO headroom
#: factor the paper's Fig. 12 run uses.
SLO_MS = 69.0
INTERVAL = 0.5
HEADROOM = 1.4


def build_scenario(seed: int = 42, quick: bool = False) -> tuple[Scenario, StepTrace]:
    """The declarative form of this figure: one function, a steps workload.

    The staircase is the paper's (:meth:`StepTrace.fig12_trace`), or a
    40 s one with ``quick``; its steps embed directly into the Scenario spec.
    """
    if quick:
        workload = StepTrace([(10, 10), (10, 40), (10, 70), (10, 30)])
    else:
        workload = StepTrace.fig12_trace()
    scenario = Scenario(
        name="fig12-autoscaling",
        seed=seed,
        cluster=ClusterSpec(nodes=2, gpu="V100"),
        functions=(
            # Model sharing keeps scale-up cold starts short (paper architecture).
            ScenarioFunction(
                name="resnet",
                model="resnet50",
                slo_ms=SLO_MS,
                model_sharing=True,
                workload=WorkloadSpec(
                    kind="steps",
                    steps=tuple((d, r) for d, r in workload.steps),
                    poisson=workload.poisson,
                ),
            ),
        ),
        autoscaler=AutoscalerSpec(
            policy="reactive",
            interval=INTERVAL,
            headroom=HEADROOM,
            scale_down_cooldown=10.0,
            # Marginal surpluses must not trigger scale-down: removing a pod
            # pushes the survivors into queueing territory the 69 ms SLO
            # cannot absorb.
            down_hysteresis=0.3,
        ),
        measurement=MeasurementSpec(drain_s=2.0, sample_dt=1.0),
    )
    return scenario, workload


def run(seed: int = 42, quick: bool = False) -> Fig12Result:
    scenario, workload = build_scenario(seed=seed, quick=quick)
    report = FaSTGShare.run_scenario(scenario)

    horizon = workload.duration
    log = report.function("resnet").run.log
    # Shift completion times to trace-relative before binning.
    for request in log.completed:
        request.end -= report.t0
        request.arrival -= report.t0
    times, completed_rps = log.completions_per_second(horizon)
    offered = np.array([workload.rps_at(t - 0.5) for t in times])
    violation_t, violation_r = violation_series(log, SLO_MS, horizon)

    series = [(t, sum(counts.values())) for t, counts in report.replica_series]
    replica_counts = np.zeros(len(times))
    for i, t in enumerate(times):
        past = [count for st, count in series if st <= t]
        replica_counts[i] = past[-1] if past else 1
    return Fig12Result(
        times=times,
        offered_rps=offered,
        completed_rps=completed_rps,
        replica_counts=replica_counts,
        violation_times=violation_t,
        violation_ratios=violation_r,
        overall_violation_ratio=violation_ratio(log, SLO_MS),
        max_replicas=int(replica_counts.max()),
        slo_ms=SLO_MS,
        completed=len(log),
        submitted=report.function("resnet").run.submitted,
    )


def format_result(result: Fig12Result) -> str:
    lines = [
        "Fig. 12 — auto-scaling to meet the SLO",
        f"  SLO {result.slo_ms:.0f} ms   completed {result.completed}/{result.submitted}",
        f"  overall violation ratio: {100 * result.overall_violation_ratio:.2f}% "
        "(paper: below 1%)",
        f"  replicas: 1 → max {result.max_replicas}",
        "  t(s)  offered  served  replicas  violations%",
    ]
    step = max(1, len(result.times) // 12)
    for i in range(0, len(result.times), step):
        lines.append(
            f"  {result.times[i]:5.0f}  {result.offered_rps[i]:7.1f} "
            f"{result.completed_rps[i]:7.1f}  {result.replica_counts[i]:8.0f} "
            f" {100 * result.violation_ratios[min(i, len(result.violation_ratios) - 1)]:6.2f}"
        )
    return "\n".join(lines)
