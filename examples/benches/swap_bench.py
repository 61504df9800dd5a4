"""Swap-bench — the memory-tier headline: swap-aware keep-alive vs both
scale-to-zero and WARM_IDLE-only keep-alive on a long-tail fleet.

The fleet is the serverless long tail in three deliberate tiers:

* **head** — a couple of steady services: the always-on serving baseline;
* **periodic tail** — functions whose clumped arrivals return every minute
  or two (``cold`` trace shape): the swap-in traffic — each quiet gap is
  long enough to park the model, each return is a chance to hide the
  reload behind the fabric;
* **rare tail** — many one-shot functions, each firing a single clump at a
  staggered, deterministic offset: the *capacity pressure*.  Their
  aggregate model size far exceeds cluster GPU memory, so any policy that
  keeps every past visitor GPU-resident crowds the newcomers out.

Three autoscaling policies replay the same arrivals:

* ``hybrid``   — scale-to-zero keep-alive: idle functions retire down to a
  WARM_IDLE readiness reserve; reactivation beyond it pays a **full cold
  start** (seconds of model load);
* ``warmidle`` — WARM_IDLE-only (``scale_to_zero=False``): reserves never
  retire, so every function that ever ran holds a GPU rectangle and GPU
  memory **forever** — late arrivals in the rare tail find the cluster
  full and queue indefinitely;
* ``memtier``  — the swap-aware policy: idle reserves demote to
  ``HOST_RESIDENT`` (zero GPU footprint), reactivation is a **fabric
  swap-in** (milliseconds, contention-dependent) — the GPU-resident /
  host-resident / cold decision triangle.

Violations are counted honestly: a request that is *never served* (its
function could not be placed before the horizon ended) is an SLO violation
by definition (:func:`repro.sweep.report.effective_violation_ratio`);
comparing on the completed-only ratio alone would reward policies for
dropping work.

The acceptance bar is strict domination: ``memtier`` must spend *fewer
GPU-seconds than both* baselines at an *equal-or-better effective
SLO-violation rate*.  The committed bench specs
``examples/benches/swap{,_quick}.json`` (written from this module by
``gen_benches.py`` beside it) state it as their ``assert`` block;
``python -m repro sweep examples/benches/swap_quick.json`` runs the
comparison.  The full shape's base is the committed long-tail scenario
``examples/scenarios/longtail_swap.json``.
"""

from __future__ import annotations

import typing as _t

from repro.scenario import (
    AutoscalerSpec,
    ClusterSpec,
    MeasurementSpec,
    Scenario,
    ScenarioFunction,
    WorkloadSpec,
)
from repro.sweep import Sweep, SweepAxis

#: Autoscaling policies compared (registry names; ``hybrid`` = scale-to-zero).
SWAP_POLICIES = ("hybrid", "warmidle", "memtier")

#: Default cluster: homogeneous V100 nodes (16 GB GPU memory each).
SWAP_NODES: tuple[str, ...] = ("V100",) * 6
QUICK_SWAP_NODES: tuple[str, ...] = ("V100", "V100")

#: Host RAM budget per node (MB) for HOST_RESIDENT pods, and fabric GB/s.
HOST_MEMORY_MB = 131072.0
FABRIC_GBPS = 16.0

#: Long-tail model mix, biased toward mid/large weights so the aggregate
#: fleet footprint dwarfs GPU memory (pod ≈ framework + weights + activations).
_TAIL_MODELS = ("bert", "gnmt", "rnnt", "resnet152", "resnext_xlarge", "resnet50")
#: Tail per-function mean RPS cycle: almost-always-idle, clumped arrivals.
_TAIL_RPS = (0.06, 0.10, 0.15, 0.08, 0.12, 0.20)
#: Head functions: steady low-rate traffic that keeps a serving baseline up.
_HEAD: tuple[tuple[str, str, str, float], ...] = (
    ("head-resnet", "resnet50", "steady", 2.0),
    ("head-bert", "bert", "steady", 1.0),
)
#: The ``cold`` trace shape fires this fraction of bins; rare-tier one-shot
#: clumps reuse it to size their single burst to the same per-clump rate.
_COLD_ACTIVE_FRACTION = 0.12

#: Fleet row: (name, model, tier, mean_rps) with tier ∈ steady|periodic|rare.
FleetRow = tuple[str, str, str, float]


def longtail_fleet(
    periodic: int, rare: int, heads: int = len(_HEAD)
) -> tuple[FleetRow, ...]:
    """The tiered fleet as (name, model, tier, mean_rps) rows.

    ``heads`` steady services lead; ``periodic`` returning-clump functions
    and ``rare`` one-shot functions follow, cycling deterministically
    through the model/rate mixes.
    """
    if not 0 < heads <= len(_HEAD):
        raise ValueError(f"heads must be in 1..{len(_HEAD)}, got {heads}")
    if periodic < 1 or rare < 1:
        raise ValueError("fleet needs at least one periodic and one rare function")
    rows: list[FleetRow] = list(_HEAD[:heads])
    for i in range(periodic):
        rows.append(
            (f"tail-{i:03d}", _TAIL_MODELS[i % 6], "periodic", _TAIL_RPS[i % 6])
        )
    for i in range(rare):
        rows.append(
            (f"rare-{i:03d}", _TAIL_MODELS[(i + 3) % 6], "rare", _TAIL_RPS[i % 6])
        )
    return tuple(rows)


def _rare_counts(
    index: int, rare_total: int, bins: int, bin_s: float, rate: float
) -> tuple[int, ...]:
    """One deterministic single-clump trace for rare function ``index``.

    Clumps stagger across the horizon (one bin each, round-robin offset) so
    the rare tier arrives as a steady trickle of first-time visitors rather
    than a thundering herd — the regime where keep-alive reserves from past
    visitors crowd newcomers out.
    """
    counts = [0] * bins
    stride = max(1, (bins - 4) // max(rare_total, 1))
    b = (3 + index * stride) % (bins - 1)
    counts[b] = max(2, int(rate / _COLD_ACTIVE_FRACTION * bin_s))
    return tuple(counts)


def base_scenario(
    fleet: _t.Sequence[FleetRow],
    nodes: _t.Sequence[str],
    seed: int,
    bins: int,
    bin_s: float,
    interval: float,
    host_memory_mb: float = HOST_MEMORY_MB,
    fabric_gbps: float = FABRIC_GBPS,
) -> Scenario:
    """The long-tail base Scenario (``memtier`` policy; the sweep swaps it).

    Every cell replays identical arrivals: head/periodic workloads are
    scenario-seeded synthetic traces, the rare tier's one-shot clumps are
    deterministic ``counts``.  ``host_memory_mb`` is present in *all* cells
    so the only difference between policies is the decision logic, not the
    platform build.  Tail functions start undeployed (``initial_replicas=0``):
    their first clump pays the cold start under every policy; what the
    policies differ on is every activation after that — and whether the
    reserves they hold for it crowd out the rare tier's first clumps.
    """
    rare_total = sum(1 for _, _, tier, _ in fleet if tier == "rare")
    rare_index = 0
    functions = []
    for name, model, tier, rps in fleet:
        if tier == "steady":
            workload = WorkloadSpec(
                kind="synthetic", shape="steady", mean_rps=rps, bins=bins, bin_s=bin_s
            )
        elif tier == "periodic":
            workload = WorkloadSpec(
                kind="synthetic", shape="cold", mean_rps=rps, bins=bins, bin_s=bin_s
            )
        elif tier == "rare":
            workload = WorkloadSpec(
                kind="counts",
                counts=_rare_counts(rare_index, rare_total, bins, bin_s, rps),
                bin_s=bin_s,
                shape="cold",
            )
            rare_index += 1
        else:
            raise ValueError(f"unknown fleet tier {tier!r} for function {name!r}")
        functions.append(
            ScenarioFunction(
                name=name,
                model=model,
                model_sharing=False,
                initial_replicas=1 if tier == "steady" else 0,
                workload=workload,
            )
        )
    return Scenario(
        name="longtail-swap",
        seed=seed,
        description=(
            "Long-tail fleet whose aggregate model size exceeds cluster GPU "
            "memory: the memory-tier (host-resident swap) headline scenario."
        ),
        cluster=ClusterSpec(
            nodes=tuple(nodes),
            host_memory_mb=host_memory_mb,
            fabric_gbps=fabric_gbps,
        ),
        functions=tuple(functions),
        autoscaler=AutoscalerSpec(policy="memtier", interval=interval),
        measurement=MeasurementSpec(drain_s=2.0),
    )


def sweep_for_policies(base: Scenario, policies: _t.Sequence[str]) -> Sweep:
    """One autoscaler axis over the shared long-tail base scenario."""
    return Sweep(
        name="swap-keepalive",
        base=base,
        axes=(SweepAxis(axis="autoscaler", values=tuple(policies)),),
        description=(
            "Swap-aware keep-alive vs scale-to-zero and WARM_IDLE-only on "
            "the long-tail fleet"
        ),
    )
