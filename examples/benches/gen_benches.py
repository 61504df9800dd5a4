"""Write the committed bench sweep specs (``examples/benches/*.json``).

Each bench is a one-axis policy comparison over a shared base scenario,
committed twice: ``<name>.json`` at its full shape and ``<name>_quick.json``
at the small shape CI runs.  The specs come from the experiment modules'
scenario generators, under the sweep names those modules always used, so
seeds, scenario names and arrivals match the benches' earlier reports:

* ``cluster`` — fig14 placement policies on a heterogeneous cluster
  (:func:`repro.experiments.fig14_cluster.bench_sweep`);
* ``prewarm`` — fig15 reactive vs predictive (``hybrid``) vs oracle
  autoscaling; asserts predictive violates its SLO no more than reactive
  (:func:`repro.experiments.fig15_prewarm.bench_sweep`);
* ``swap``    — scale-to-zero vs WARM_IDLE-only vs the memory tier on a
  long-tail fleet; asserts memtier spends fewer GPU-seconds than both at an
  equal-or-better effective violation rate.  The full spec's base is the
  committed ``examples/scenarios/longtail_swap.json``;
* ``migrate`` — background defragmentation off vs on over a fragmented
  spread fleet; asserts defrag-on uses fewer mean GPUs at an
  equal-or-better effective violation rate;
* ``fig11``   — time sharing vs the FaST-Scheduler on Fig. 11's static pod
  set; asserts ``fast`` uses fewer mean GPUs and GPU-seconds
  (:func:`repro.experiments.fig11_scheduler.bench_sweep`).

The specs are the source of truth (``python -m repro sweep
examples/benches/swap_quick.json``); rerun this only after a generator
changes::

    PYTHONPATH=src python examples/benches/gen_benches.py
"""

from __future__ import annotations

import dataclasses
import functools
import json
import pathlib

from repro.experiments import (
    fig11_scheduler,
    fig14_cluster,
    fig15_prewarm,
    migrate_bench,
    swap_bench,
)
from repro.scenario import load_scenario
from repro.sweep import Sweep, SweepAssertion

HERE = pathlib.Path(__file__).resolve().parent
SEED = 42

#: The full swap spec points at this committed scenario instead of
#: inlining a copy of it (path relative to this directory).
SWAP_BASE = "../scenarios/longtail_swap.json"

BENCHES = ("cluster", "prewarm", "swap", "migrate", "fig11")


def swap(quick: bool) -> Sweep:
    if quick:
        fleet = swap_bench.longtail_fleet(periodic=4, rare=12, heads=1)
        nodes, bins = swap_bench.QUICK_SWAP_NODES, 18
    else:
        fleet = swap_bench.longtail_fleet(periodic=10, rare=200, heads=2)
        nodes, bins = swap_bench.SWAP_NODES, 72
    base = swap_bench.base_scenario(fleet, nodes, SEED, bins, bin_s=10.0, interval=1.0)
    sweep = swap_bench.sweep_for_policies(base, swap_bench.SWAP_POLICIES)
    check = SweepAssertion(
        cell="autoscaler=memtier",
        vs=("autoscaler=hybrid", "autoscaler=warmidle"),
        lt=("gpu_seconds",),
        le=("effective_violation_ratio",),
    )
    return dataclasses.replace(sweep, asserts=(check,))


def migrate(quick: bool) -> Sweep:
    mb = migrate_bench
    base = mb.base_scenario(
        mb.fragmented_fleet(6 if quick else 10),
        mb.QUICK_MIGRATE_NODES if quick else mb.MIGRATE_NODES,
        SEED,
        burst=mb.QUICK_BURST_PHASE if quick else mb.BURST_PHASE,
        tail=mb.QUICK_TAIL_PHASE if quick else mb.TAIL_PHASE,
    )
    sweep = mb.sweep_for_defrag(base, mb.DEFRAG_THRESHOLD)
    check = SweepAssertion(
        cell=f"defrag={mb.DEFRAG_THRESHOLD}",
        vs=("defrag=None",),
        lt=("mean_gpus",),
        le=("effective_violation_ratio",),
    )
    return dataclasses.replace(sweep, asserts=(check,))


def bench_sweeps() -> dict[str, Sweep]:
    """Every committed spec's Sweep, keyed by file stem (``swap_quick``, ...)."""
    makers = {
        "cluster": functools.partial(fig14_cluster.bench_sweep, seed=SEED),
        "prewarm": functools.partial(fig15_prewarm.bench_sweep, seed=SEED),
        "swap": swap,
        "migrate": migrate,
        "fig11": functools.partial(fig11_scheduler.bench_sweep, seed=SEED),
    }
    sweeps = {}
    for name in BENCHES:
        sweeps[name] = makers[name](quick=False)
        sweeps[f"{name}_quick"] = makers[name](quick=True)
    return sweeps


def spec_payload(stem: str, sweep: Sweep) -> dict:
    """The JSON a spec file holds; the full swap spec references its base."""
    payload = sweep.to_dict()
    if stem == "swap":
        committed = load_scenario(str(HERE / SWAP_BASE))
        if dataclasses.replace(committed, description=sweep.base.description) != sweep.base:
            raise SystemExit(f"{SWAP_BASE} no longer matches the full swap base scenario")
        payload["base"] = SWAP_BASE
    return payload


def main() -> None:
    for stem, sweep in bench_sweeps().items():
        path = HERE / f"{stem}.json"
        path.write_text(json.dumps(spec_payload(stem, sweep), indent=2, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(HERE.parent.parent)} ({sweep.cell_count} cells)")


if __name__ == "__main__":
    main()
