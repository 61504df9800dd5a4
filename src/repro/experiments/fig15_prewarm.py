"""Fig. 15 (extension) — predictive pre-warming vs reactive autoscaling.

The fig14 cluster replay shows the reactive Algorithm-1 scaler leaves
flash-crowd and cold-tail functions with heavy SLO violations: by the time
``ΔRPS`` goes positive, every queued request eats the full cold start plus
the capacity ramp.  This experiment replays the fig14 **cold/bursty** trace
subset over the same heterogeneous cluster under three autoscaler policies:

* ``reactive`` — the paper's Algorithm 1 alone (degenerate controller);
* ``hybrid``   — the predictive forecaster (Holt-EWMA + Azure-style
  histogram keep-alive): WARM_IDLE spares promote instantly on pending
  requests, clumps are pre-warmed ahead of their predicted arrival, and
  idle functions scale to zero past the keep-alive tail;
* ``oracle``   — forecasters that read the replayed trace itself (the
  upper bound on what prediction can buy).

Every policy replays the *same* seeded trace set, so differences in
SLO-violation rate, cold-start exposure, and GPU-seconds are attributable
to the autoscaling policy alone.  :func:`bench_sweep` is the one definition
of the comparison: the committed bench specs
``examples/benches/prewarm{,_quick}.json`` are written from it, and its
``assert`` block requires the predictive policy's SLO-violation rate to be
at most the reactive baseline's; the full-shape target is a ≥2× cut at
≤15% extra GPU-seconds.

Two deliberate defaults: the replay horizon is **36 bins** (vs fig14's 24)
because prediction needs repetition — a horizon with a single clump per
cold function measures only the unpredictable first-ever cold start, not
the steady state any histogram policy converges to; and the cluster gets a
**fifth node** so the reactive-vs-predictive comparison measures control
policy, not hard capacity exhaustion (on a saturated cluster every policy
degenerates to "whoever grabbed space first wins").
"""

from __future__ import annotations

from repro.experiments.fig14_cluster import CLUSTER_FLEET, QUICK_NODES, replay_base
from repro.sweep import Sweep, SweepAssertion, SweepAxis, SweepReport, run_sweep

#: The fig14 cold/bursty subset — the traffic shapes where cold starts bite.
PREWARM_FLEET: tuple[tuple[str, str, str, float], ...] = tuple(
    row for row in CLUSTER_FLEET if row[2] in ("cold", "bursty")
)

#: Autoscaler policies compared by this experiment (registry names).
SCALING_POLICIES = ("reactive", "hybrid", "oracle")

#: Default node set: fig14's heterogeneous cluster plus one V100 of headroom.
PREWARM_NODES: tuple[str, ...] = ("V100", "V100", "V100", "A100", "T4")


def bench_sweep(quick: bool, seed: int = 42) -> Sweep:
    """The autoscaler comparison: one ``autoscaler`` axis plus its assertion.

    The oracle cell's per-function trace forecasters are built by the
    scenario runner from the embedded counts, with the default
    ``oracle_lead_s`` of lead.  All cells start from the same deployed state — one warm pod per
    function — which the predictive policies may scale to zero.
    """
    base = replay_base(
        "fig15",
        PREWARM_FLEET[:3] if quick else PREWARM_FLEET,
        QUICK_NODES if quick else PREWARM_NODES,
        bins=10 if quick else 36,
        quick=quick,
        seed=seed,
    )
    return Sweep(
        name="fig15-autoscaler",
        base=base,
        axes=(SweepAxis(axis="autoscaler", values=SCALING_POLICIES),),
        description="Fig. 15: predictive pre-warming vs reactive autoscaling",
        asserts=(
            SweepAssertion(
                cell="autoscaler=hybrid",
                vs=("autoscaler=reactive",),
                le=("slo_violation_ratio",),
            ),
        ),
    )


def run(quick: bool = False, seed: int = 42) -> SweepReport:
    """Replay the cold/bursty trace set under each autoscaler policy."""
    return run_sweep(bench_sweep(quick, seed))


def format_result(report: SweepReport) -> str:
    return (
        "Fig. 15 — predictive pre-warming vs reactive autoscaling (cold/bursty traces)\n"
        + report.summary()
    )
