"""The benchmark's workloads: which scenario each one replays.

Every workload is a full-length scenario so that each layer sees the load
it sees in real use.  ``seed`` replaces the scenario seed (arrival streams,
service-time jitter, every engine random stream) with synthetic traffic
shapes pinned at the committed seed (see :func:`pin_shapes`); ``None``
keeps the committed scenario as it is.  ``quick`` shrinks a scenario for the
benchmark's own self-test only.
"""

from __future__ import annotations

import dataclasses
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = pathlib.Path(__file__).resolve().parent

SIM_WORKLOADS = ("mixed_fleet", "longtail_swap", "fragmented_defrag")
LIVE_WORKLOADS = ("live_static",)
WORKLOADS = SIM_WORKLOADS + LIVE_WORKLOADS

#: fragmented_defrag: the migrate-bench fragmented spread fleet, scaled up
#: (the committed bench uses 10 functions on 6 nodes) so the defragmenter
#: plans over a wider cluster, yet one replay stays near a second and a run
#: gets enough replays for a steady median.
DEFRAG_FUNCTIONS = 24
DEFRAG_NODES = 12


def load(workload: str, seed: int | None = None, quick: bool = False):
    """The :class:`~repro.scenario.spec.Scenario` a workload replays."""
    from repro.scenario.spec import DefragSpec, load_scenario

    if workload in ("mixed_fleet", "longtail_swap"):
        scenario = load_scenario(str(ROOT / "examples" / "scenarios" / f"{workload}.json"))
    elif workload == "fragmented_defrag":
        from repro.experiments import migrate_bench as mb

        scenario = mb.base_scenario(
            mb.fragmented_fleet(DEFRAG_FUNCTIONS),
            ("V100",) * DEFRAG_NODES,
            seed=42,
            burst=mb.BURST_PHASE,
            tail=mb.TAIL_PHASE,
        )
        scenario = dataclasses.replace(
            scenario,
            cluster=dataclasses.replace(
                scenario.cluster, defrag=DefragSpec(threshold=mb.DEFRAG_THRESHOLD)
            ),
        )
    elif workload == "live_static":
        scenario = load_scenario(str(HERE / "live_static.json"))
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    if quick:
        scenario = scenario.quick()
    if seed is not None:
        scenario = dataclasses.replace(pin_shapes(scenario), seed=seed)
    return scenario


def pin_shapes(scenario):
    """Freeze every synthetic traffic shape at the committed seed.

    The shape (per-bin request counts: where the diurnal peak and the
    bursts fall) is part of what a workload *is*; the workload seed then
    draws the arrivals within each bin, the service-time jitter and every
    other random stream.  With the shape free as well, mixed_fleet's p95
    moved 14% and its GPU-seconds 7% (quartile spread over five seeds),
    because the seed moved the bursts themselves.  At the committed seed
    the replay is the committed scenario's, request for request.
    """
    from repro.scenario.runner import resolve_workload
    from repro.scenario.spec import WorkloadSpec

    functions = []
    for fn in scenario.functions:
        if fn.workload.kind == "synthetic":
            _, trace = resolve_workload(fn, scenario.seed)
            fn = dataclasses.replace(fn, workload=WorkloadSpec(
                kind="counts", counts=tuple(trace.counts), bin_s=trace.bin_s,
                shape=trace.shape,
            ))
        functions.append(fn)
    return dataclasses.replace(scenario, functions=tuple(functions))
