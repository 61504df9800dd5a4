"""Fig. 14 (extension) — cluster-scale trace replay on heterogeneous GPUs.

The paper evaluates one node and a handful of functions under synthetic
Poisson load; its scheduler (§3.4) and the Maximal Rectangles placement are
nonetheless designed for *cluster-wide* spatio-temporal packing.  This
experiment opens that regime: a mixed fleet of DNN services with
production-shaped arrivals (diurnal tide, flash-crowd bursts, cold-heavy
tails — see :mod:`repro.faas.traces`) is replayed over a cluster of
**heterogeneous GPU nodes** (per-node GPU type, SM count, memory, serving
speed) under several node-scoring policies:

* ``binpack``  — the paper's global best-area matching (fewest GPUs);
* ``spread``   — least-allocated node first (isolation headroom);
* ``affinity`` — GPU-type affinity: fastest device type that fits.

Every policy replays the *same* trace set from the same seed, so the
reported SLO-violation rate, GPU count, and utilization differences are
attributable to placement alone.  :func:`bench_sweep` is the one definition
of the comparison: the committed bench specs
``examples/benches/cluster{,_quick}.json`` are written from it, and
``python -m repro run fig14`` prints its SweepReport.
"""

from __future__ import annotations

import typing as _t

from repro.faas.traces import synthesize_trace_set
from repro.scenario import (
    AutoscalerSpec,
    ClusterSpec,
    MeasurementSpec,
    Scenario,
    ScenarioFunction,
    WorkloadSpec,
)
from repro.scheduler.mra import PLACEMENT_POLICIES
from repro.sweep import Sweep, SweepAxis, SweepReport, run_sweep

#: (function, model, trace shape, mean rps) — the default service fleet.
#: Shapes cover the three production regimes; loads are sized so the full
#: fleet stresses (but does not drown) a 4-node heterogeneous cluster.
CLUSTER_FLEET: tuple[tuple[str, str, str, float], ...] = (
    ("resnet-api", "resnet50", "diurnal", 30.0),
    ("bert-qa", "bert", "bursty", 8.0),
    ("rnnt-dictate", "rnnt", "diurnal", 3.0),
    ("gnmt-translate", "gnmt", "cold", 4.0),
    ("resnet152-batch", "resnet152", "bursty", 6.0),
    ("vit-tagging", "vit_huge", "cold", 1.0),
)

#: Default heterogeneous node sets (GPU type per node).
DEFAULT_NODES: tuple[str, ...] = ("V100", "V100", "A100", "T4")
QUICK_NODES: tuple[str, ...] = ("V100", "A100", "T4")
#: Measurement warm-up (seconds excluded from every metric): the cold ramp —
#: first admissions, container cold starts — would otherwise dominate the
#: short replays' percentiles.
DEFAULT_WARMUP_S = 30.0
QUICK_WARMUP_S = 3.0


def replay_base(
    name: str,
    fleet: _t.Sequence[tuple[str, str, str, float]],
    nodes: _t.Sequence[str],
    bins: int,
    quick: bool,
    seed: int,
) -> Scenario:
    """The fig14/fig15 base Scenario: ``fleet``'s seeded traces on ``nodes``.

    The synthesized per-bin counts are embedded as ``counts`` workloads, so
    every cell of a sweep over this base replays identical arrivals.  Model
    sharing stays on fleet-wide — it keeps trace-burst scale-ups warm-start
    cheap (the paper's architecture point; without it cold-tail functions
    pay a full model load on every flash crowd).
    """
    trace_set = synthesize_trace_set(
        list(fleet), bins=bins, bin_s=3.0 if quick else 10.0, seed=seed
    )
    functions = tuple(
        ScenarioFunction(
            name=trace.function,
            model=trace.model,
            model_sharing=True,
            workload=WorkloadSpec(
                kind="counts", counts=trace.counts, bin_s=trace.bin_s, shape=trace.shape
            ),
        )
        for trace in trace_set.traces
    )
    return Scenario(
        name=name,
        seed=seed,
        cluster=ClusterSpec(nodes=tuple(nodes)),
        functions=functions,
        autoscaler=AutoscalerSpec(
            policy="reactive",
            interval=0.5 if quick else 1.0,
            headroom=1.3,
            scale_down_cooldown=8.0,
            down_hysteresis=0.3,
        ),
        measurement=MeasurementSpec(
            warmup_s=QUICK_WARMUP_S if quick else DEFAULT_WARMUP_S, drain_s=2.0
        ),
    )


def bench_sweep(quick: bool, seed: int = 42) -> Sweep:
    """The placement comparison: one ``placement`` axis over the replay base."""
    base = replay_base(
        "fig14",
        CLUSTER_FLEET[:4] if quick else CLUSTER_FLEET,
        QUICK_NODES if quick else DEFAULT_NODES,
        bins=10 if quick else 24,
        quick=quick,
        seed=seed,
    )
    return Sweep(
        name="fig14-placement",
        base=base,
        axes=(SweepAxis(axis="placement", values=PLACEMENT_POLICIES),),
        description="Fig. 14: heterogeneous-cluster trace replay per placement policy",
    )


def run(quick: bool = False, seed: int = 42) -> SweepReport:
    """Replay the trace set under each placement policy."""
    return run_sweep(bench_sweep(quick, seed))


def format_result(report: SweepReport) -> str:
    return "Fig. 14 — cluster-scale trace replay across heterogeneous GPUs\n" + report.summary()
