"""Experiment reroutes preserve results bit-for-bit.

``tests/data/fig14_quick_baseline.json`` /
``tests/data/fig15_quick_baseline.json`` pin the quick fig14 / fig15
per-policy metrics.  Originally captured before fig12/fig14/fig15 were
rerouted through ``FaSTGShare.run_scenario`` and the declarative ``Sweep``
API, they were re-captured when the figures' defaults flipped to honour the
measurement warm-up (the measure-from-``t=0`` path was verified
bit-identical against the pre-flip pins before re-capturing), and their
window-dependent values refreshed again when the window stopped counting
completions of requests that arrived before it.  The figures
now return their bench SweepReport directly; every pinned metric must equal
the matching cell metric — any drift means a refactor changed behaviour,
not just structure.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments import fig14_cluster, fig15_prewarm

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"
BASELINE = DATA / "fig14_quick_baseline.json"
FIG15_BASELINE = DATA / "fig15_quick_baseline.json"
#: ``run fig14/fig15 --quick`` is the committed quick bench report, byte for byte.
PINS = DATA.parents[1] / "benchmarks"

#: The pins name fig15 cells by their historical mode names.
FIG15_CELLS = {"reactive": "reactive", "predictive": "hybrid", "oracle": "oracle"}


def pinned_metrics(metrics: dict) -> dict:
    """The cell metrics plus the derived pod cold-start count the pins carry."""
    cold_starts = metrics["scale_ups"] + metrics["initial_pods"] + metrics["prewarms"]
    return {**metrics, "pod_cold_starts": cold_starts}


def assert_cells_match(report, axis: str, baseline: dict, cells: dict) -> int:
    """Compare every pinned per-policy value; returns how many were compared."""
    base = report.sweep.base
    assert list(base.cluster.nodes) == baseline["nodes"]
    assert baseline["trace"] == {
        "seed": base.seed,
        "bins": len(base.functions[0].workload.counts),
        "bin_s": base.functions[0].workload.bin_s,
    }
    assert {dict(c.coords)[axis] for c in report.cells} == set(cells.values())
    compared = 0
    for policy, base_metrics in baseline["policies"].items():
        fresh_metrics = pinned_metrics(report.cell(**{axis: cells[policy]}).metrics)
        for key, base_value in base_metrics.items():
            fresh_value = fresh_metrics[key]
            if isinstance(base_value, dict):
                assert set(fresh_value) == set(base_value), (policy, key)
                for sub, value in base_value.items():
                    assert fresh_value[sub] == pytest.approx(value, rel=1e-12), (
                        policy,
                        key,
                        sub,
                    )
            elif isinstance(base_value, float):
                assert fresh_value == pytest.approx(base_value, rel=1e-12), (policy, key)
            else:
                assert fresh_value == base_value, (policy, key)
            compared += 1
    return compared


def test_fig14_quick_matches_pre_refactor_baseline():
    baseline = json.loads(BASELINE.read_text())
    report = fig14_cluster.run(quick=True)
    cells = {policy: policy for policy in baseline["policies"]}
    assert assert_cells_match(report, "placement", baseline, cells) == 36
    assert report.to_json() == (PINS / "BENCH_cluster_quick.json").read_text()


def test_fig15_quick_matches_pre_sweep_baseline():
    baseline = json.loads(FIG15_BASELINE.read_text())
    report = fig15_prewarm.run(quick=True)
    assert assert_cells_match(report, "autoscaler", baseline, FIG15_CELLS) == 54
    assert report.to_json() == (PINS / "BENCH_prewarm_quick.json").read_text()
    reactive = report.cell(autoscaler="reactive").metrics
    predictive = report.cell(autoscaler="hybrid").metrics
    improvement = reactive["slo_violation_ratio"] / predictive["slo_violation_ratio"]
    overhead = predictive["gpu_seconds"] / reactive["gpu_seconds"] - 1.0
    headline = baseline["headline"]
    assert improvement == pytest.approx(headline["violation_improvement_vs_reactive"], rel=1e-12)
    assert overhead == pytest.approx(headline["gpu_seconds_overhead_vs_reactive"], abs=1e-12)


def test_fig14_scenarios_differ_only_in_placement_policy():
    """The per-policy Scenarios are identical specs up to the policy field."""
    scenarios = {
        dict(cell.coords)["placement"]: cell.scenario.to_dict()
        for cell in fig14_cluster.bench_sweep(quick=True).cells()
    }
    assert set(scenarios) == {"binpack", "spread", "affinity"}
    a = scenarios["binpack"]
    for policy in ("spread", "affinity"):
        b = scenarios[policy]
        assert a["functions"] == b["functions"]
        assert a["cluster"] == b["cluster"]
        assert b["autoscaler"]["placement"] == policy
    # to_dict omits defaulted fields, so binpack (the default) is implicit.
    assert a["autoscaler"].get("placement", "binpack") == "binpack"
