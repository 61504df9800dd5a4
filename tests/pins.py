"""The committed simulated report pins and the runs that reproduce them.

Every simulated pin is the ``to_json()`` of one deterministic run of a
committed spec, so it is checked by exact equality, never by a tolerance:
``tests/test_pins.py`` replays each quick pin here, and CI's ``bench-specs``
job replays each full pin and ``cmp``s it.  Tests that check what a quick
run means share its one replay through :func:`quick_pin_report`.
"""

from __future__ import annotations

import dataclasses
import functools
import pathlib

from repro.platform import FaSTGShare
from repro.scenario import load_scenario
from repro.sweep import load_sweep, run_sweep

ROOT = pathlib.Path(__file__).resolve().parents[1]


@dataclasses.dataclass(frozen=True)
class Producer:
    """One ``python -m repro`` run: the subcommand, the committed spec
    (relative to the repo root), ``--quick`` and ``--jobs``."""

    command: str
    spec: str
    quick: bool = False
    jobs: int = 1


#: Every quick simulated pin (relative to the repo root) and its producer.
QUICK_PINS = {
    "benchmarks/BENCH_cluster_quick.json": Producer("sweep", "examples/benches/cluster_quick.json"),
    "benchmarks/BENCH_fig11_quick.json": Producer("sweep", "examples/benches/fig11_quick.json"),
    "benchmarks/BENCH_migrate_quick.json": Producer("sweep", "examples/benches/migrate_quick.json"),
    "benchmarks/BENCH_prewarm_quick.json": Producer("sweep", "examples/benches/prewarm_quick.json"),
    "benchmarks/BENCH_swap_quick.json": Producer("sweep", "examples/benches/swap_quick.json"),
    "benchmarks/BENCH_tokens_quick.json": Producer("sweep", "examples/benches/tokens_quick.json"),
    "benchmarks/BENCH_scenario_quick.json": Producer(
        "scenario", "examples/scenarios/cold_bursty.json", quick=True
    ),
    "benchmarks/BENCH_sweep_quick.json": Producer(
        "sweep", "examples/sweeps/azure_fleet.json", quick=True, jobs=2
    ),
}

#: The benches whose full pins, ``BENCH_<name>.json`` at the repo root, are
#: too slow for tier-1: CI's ``bench-specs`` matrix runs ``repro sweep
#: examples/benches/<name>.json --jobs 2`` and ``cmp``s the output with the pin.
FULL_BENCHES = ("cluster", "prewarm", "swap", "migrate", "fig11", "tokens")

#: The live-serving gate file.  A wall-clock replay is not bit-deterministic,
#: so ``benchmarks/check_regression.py`` bounds its robust counters instead.
SERVE_GATE = "benchmarks/BENCH_serve_quick.json"


def reproduce(producer: Producer):
    """Run ``producer`` in-process; its ``to_json()`` is what ``--output`` writes."""
    spec = str(ROOT / producer.spec)
    if producer.command == "scenario":
        return FaSTGShare.run_scenario(load_scenario(spec), quick=producer.quick)
    return run_sweep(load_sweep(spec), quick=producer.quick, jobs=producer.jobs)


@functools.cache
def quick_pin_report(pin: str):
    """The one replay of a quick pin per test session (treat it as read-only)."""
    return reproduce(QUICK_PINS[pin])
