"""Migrate-bench — the defragmentation headline: live migration on vs off
over a deliberately fragmented spread-placement fleet.

The fleet is engineered to fragment: every function bursts at once under
``spread`` placement (which scatters replicas one-per-GPU by design), then
decays to a trickle.  The autoscaler scales the burst replicas away, but
the survivors — one small rectangle per function — are stranded one per
GPU: every node is nearly free, yet no node *is* free.  Cluster
fragmentation (1 − largest-free-rectangle / total-free) stays high for the
whole tail, and the cluster holds many more GPUs than the workload needs.

Two cells replay the same arrivals through the ``defrag`` sweep axis:

* ``off`` — no migration machinery at all (``cluster.defrag`` absent), the
  exact pre-migration platform;
* ``on``  — the background defragmenter (:mod:`repro.migrate`): when
  fragmentation crosses its threshold it live-migrates stragglers onto
  shared GPUs — make-before-break, so not one request is lost — and
  releases the emptied GPUs.

Violations are counted honestly, as in the swap bench: a request never
served in-window counts as a violation
(:func:`repro.sweep.report.effective_violation_ratio`), so the
defragmenter cannot win by dropping work mid-handoff.

The acceptance bar: defrag-on must use *fewer mean GPUs* at an
*equal-or-better effective violation rate*.  The committed bench specs
``examples/benches/migrate{,_quick}.json`` (written from this module by
``examples/benches/gen_benches.py``) state it as their ``assert`` block;
``python -m repro sweep examples/benches/migrate_quick.json`` runs the
comparison.
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

#: Default cluster: homogeneous V100 nodes, sized so the burst needs most
#: of them but the tail needs very few — maximal room to defragment.
MIGRATE_NODES: tuple[str, ...] = ("V100",) * 6
QUICK_MIGRATE_NODES: tuple[str, ...] = ("V100",) * 4

#: Default defrag trigger threshold compared against ``off``.
DEFRAG_THRESHOLD = 0.3

#: Burst-then-decay shape: (duration_s, rps) pairs per phase.
BURST_PHASE = (12.0, 10.0)
TAIL_PHASE = (90.0, 0.4)
QUICK_BURST_PHASE = (8.0, 12.0)
QUICK_TAIL_PHASE = (30.0, 0.5)


def fragmented_fleet(size: int) -> tuple[str, ...]:
    """Function names of the synchronized burst-then-decay fleet."""
    if size < 2:
        raise ValueError("the fragmented fleet needs at least two functions")
    return tuple(f"burst-{i:02d}" for i in range(size))


def base_scenario(
    fleet: _t.Sequence[str],
    nodes: _t.Sequence[str],
    seed: int,
    burst: tuple[float, float],
    tail: tuple[float, float],
) -> Scenario:
    """The fragmented spread-placement base Scenario (defrag *off*).

    Every function bursts simultaneously (same step schedule), so ``spread``
    placement scatters the scale-up across every node; the long low-rate
    tail then strands one surviving replica per function, one per GPU.  The
    base carries no ``cluster.defrag`` — the sweep's ``defrag`` axis turns
    the defragmenter on for the comparison cell, so the ``off`` cell is the
    byte-exact pre-migration platform.
    """
    functions = tuple(
        ScenarioFunction(
            name=name,
            model="resnet50",
            min_replicas=0,
            workload=WorkloadSpec(kind="steps", steps=(burst, tail)),
        )
        for name in fleet
    )
    return Scenario(
        name="fragmented-spread",
        seed=seed,
        description=(
            "Synchronized burst-then-decay fleet under spread placement: the "
            "decayed tail strands one replica per GPU — the live-migration "
            "defragmentation headline scenario."
        ),
        cluster=ClusterSpec(nodes=tuple(nodes)),
        autoscaler=AutoscalerSpec(placement="spread", scale_down_cooldown=4.0),
        measurement=MeasurementSpec(drain_s=5.0),
        functions=functions,
    )


def sweep_for_defrag(base: Scenario, threshold: float) -> Sweep:
    """One ``defrag`` axis (off, threshold) over the shared fragmented base."""
    return Sweep(
        name="migrate-defrag",
        base=base,
        axes=(SweepAxis(axis="defrag", values=(None, threshold)),),
        description=(
            "Background defragmentation on vs off over the fragmented spread-placement fleet"
        ),
    )
