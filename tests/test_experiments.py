"""Smoke tests for the experiment runners (quick scale).

The benchmarks assert the paper shapes at slightly larger scale; these tests
guard that every runner executes, returns well-formed results, and that the
headline directions hold even at the smallest scale.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import (
    ablations,
    fig01_motivation,
    fig09_isolation,
    fig11_scheduler,
    fig12_autoscaling,
    fig13_modelsharing,
    fig14_cluster,
    fig15_prewarm,
)
from tests.pins import QUICK_PINS, ROOT, quick_pin_report, reproduce


def test_fig01_quick():
    result = fig01_motivation.run(quick=True)
    assert result.time_sharing.gpu_utilization > result.device_plugin.gpu_utilization
    assert result.time_sharing.sm_occupancy < 10
    assert "Fig. 1" in fig01_motivation.format_result(result)


def test_fig09_quick():
    result = fig09_isolation.run(quick=True)
    assert result.time_sharing.interference_drop > result.spatio_temporal.interference_drop
    assert len(result.time_sharing.resnet_series) > 10
    assert "isolation" in fig09_isolation.format_result(result)


def test_fig11_quick():
    result = fig11_scheduler.run(quick=True)
    assert result.fast_scheduler.gpus_used == 1
    assert result.time_sharing.gpus_used == 4
    assert "GPU 0" in fig11_scheduler.format_result(result)


def test_fig12_quick():
    result = fig12_autoscaling.run(quick=True)
    assert result.completed == result.submitted
    assert result.max_replicas >= 2
    assert len(result.times) == len(result.offered_rps)
    assert "auto-scaling" in fig12_autoscaling.format_result(result)


def test_fig13_quick():
    result = fig13_modelsharing.run(quick=True)
    assert result.bar("resnet50").original_mb == pytest.approx(1525, abs=1)
    assert result.resnext_pods_with_sharing > result.resnext_pods_without_sharing
    assert "memory footprint" in fig13_modelsharing.format_result(result)


def test_fig14_quick():
    # tests/scenario/test_fig_equivalence.py checks run(quick=True) is this pin.
    report = _bench_quick("cluster")
    nodes = report.sweep.base.cluster.nodes
    assert len(set(nodes)) >= 3  # heterogeneous GPU types
    functions = {fn.name for fn in report.sweep.base.functions}
    assert [cell.key for cell in report.cells] == [
        "placement=binpack",
        "placement=spread",
        "placement=affinity",
    ]
    for cell in report.cells:
        assert cell.metrics["completed"] > 0
        assert 0.0 <= cell.metrics["slo_violation_ratio"] <= 1.0
        assert 1 <= cell.metrics["peak_gpus"] <= len(nodes)
        assert set(cell.metrics["per_function_violations"]) == functions
    text = fig14_cluster.format_result(report)
    assert "cluster-scale trace replay" in text
    assert report.summary() in text


def test_fig14_seed_reaches_trace_synthesis():
    def counts(seed):
        base = fig14_cluster.bench_sweep(quick=True, seed=seed).base
        return base.seed, [fn.workload.counts for fn in base.functions]

    assert counts(7)[0] == 7
    assert counts(7)[1] != counts(42)[1]


def test_fig15_quick():
    report = _bench_quick("prewarm")
    assert [dict(cell.coords)["autoscaler"] for cell in report.cells] == list(
        fig15_prewarm.SCALING_POLICIES
    )
    functions = {fn.name for fn in report.sweep.base.functions}
    for cell in report.cells:
        assert cell.metrics["completed"] > 0
        assert 0.0 <= cell.metrics["slo_violation_ratio"] <= 1.0
        assert cell.metrics["gpu_seconds"] > 0
        assert set(cell.metrics["per_function_violations"]) == functions
    reactive = report.cell(autoscaler="reactive").metrics
    assert reactive["prewarms"] == 0 and reactive["promotions"] == 0
    assert report.cell(autoscaler="hybrid").metrics["prewarms"] > 0
    (verdict,) = report.assertion_results()
    assert verdict["holds"], verdict["failed"]
    text = fig15_prewarm.format_result(report)
    assert "pre-warming" in text
    assert "Δ autoscaler: reactive -> hybrid" in text
    assert "assert autoscaler=hybrid vs autoscaler=reactive" in text


def _bench_quick(name: str, jobs: int = 1):
    """Run a committed quick bench spec (examples/benches/<name>_quick.json);
    the serial run is shared with the pin test."""
    pin = f"benchmarks/BENCH_{name}_quick.json"
    if jobs == 1:
        return quick_pin_report(pin)
    return reproduce(dataclasses.replace(QUICK_PINS[pin], jobs=jobs))


def test_swap_bench_quick():
    report = _bench_quick("swap")
    assert [cell.key for cell in report.cells] == [
        "autoscaler=hybrid",
        "autoscaler=warmidle",
        "autoscaler=memtier",
    ]
    memtier = report.cell(autoscaler="memtier")
    assert memtier.metrics["demotions"] > 0  # the tier actually acted
    assert memtier.metrics["swap_promotions"] > 0
    for cell in report.cells:
        assert cell.metrics["submitted"] > 0
        effective = cell.assert_metric("effective_violation_ratio")
        assert 0.0 <= effective <= 1.0
        assert cell.metrics["slo_violation_ratio"] <= effective + 1e-12
        assert cell.metrics["gpu_seconds"] > 0
    for baseline in ("hybrid", "warmidle"):
        assert "demotions" not in report.cell(autoscaler=baseline).metrics
    # The committed quick configuration is the CI gate: domination must hold.
    (result,) = report.assertion_results()
    assert result["holds"], result["failed"]


def test_swap_bench_jobs_matches_serial():
    serial = _bench_quick("swap").to_json()
    pooled = _bench_quick("swap", jobs=2).to_json()
    assert serial == pooled


def test_swap_bench_longtail_fleet_shape(monkeypatch):
    from repro.models import MODEL_ZOO

    monkeypatch.syspath_prepend(str(ROOT / "examples" / "benches"))
    import swap_bench

    fleet = swap_bench.longtail_fleet(periodic=10, rare=200, heads=2)
    assert len(fleet) == 212
    tiers = {tier for _, _, tier, _ in fleet}
    assert tiers == {"steady", "periodic", "rare"}
    for _, model, _, mean_rps in fleet:
        assert model in MODEL_ZOO
        assert mean_rps > 0


def test_ablation_format():
    placement = ablations.run_placement_ablation(pods=40)
    tokens = ablations.run_token_ablation(duration=3.0)
    priority = ablations.run_priority_ablation(duration=3.0)
    text = ablations.format_results(placement, tokens, priority)
    assert "Ablation A1" in text and "Ablation A3" in text


def test_cli_list_and_run(capsys):
    from repro.__main__ import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig08" in out and "headline" in out

    assert main(["run", "fig13", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 13" in out and "finished" in out


def test_migrate_bench_quick():
    report = _bench_quick("migrate")
    assert [cell.key for cell in report.cells] == ["defrag=None", "defrag=0.3"]
    off, on = report.cell(defrag=None), report.cell(defrag=0.3)
    assert "migrations" not in off.metrics
    assert on.metrics["migrations"] > 0  # the defragmenter actually acted
    # The committed quick configuration is the CI gate: the improvement must
    # hold, and migrations must not lose a single request.
    (result,) = report.assertion_results()
    assert result["holds"], result["failed"]
    for cell in (off, on):
        assert cell.metrics["completed"] == cell.metrics["submitted"] > 0
    # jobs=2 replays the same deterministic cells.
    assert _bench_quick("migrate", jobs=2).to_json() == report.to_json()
