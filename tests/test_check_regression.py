"""Tests for the CI benchmark-regression gate (benchmarks/check_regression.py)."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

_GATE_PATH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _GATE_PATH)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def write(tmp_path, name: str, report: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return str(path)


def test_gate_rejects_non_engine_report(tmp_path, capsys):
    fresh = write(tmp_path, "fresh.json", make_scenario_report())
    # "engine" (the wall-clock engine micro-benchmark) is not a gate kind either.
    for kind in ("something", "engine"):
        baseline = write(tmp_path, "base.json", {"benchmark": kind})
        assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 2
        assert "not a known benchmark report" in capsys.readouterr().err


def test_gate_rejects_bad_tolerance(tmp_path):
    baseline = write(tmp_path, "base.json", make_sweep_report())
    with pytest.raises(SystemExit):
        check_regression.main(["--baseline", baseline, "--fresh", baseline, "--tolerance", "1.5"])


# -- prewarm bench through the sweep gate ----------------------------------------
# The fig15 prewarm bench is a committed sweep spec (examples/benches/), gated
# by the sweep kind; its spec asserts predictive (hybrid) <= reactive.
def make_prewarm_report(reactive=0.05, predictive=0.01, oracle=0.005, seed=42):
    report = make_sweep_report(
        {
            "autoscaler=reactive": (reactive, 500, 100.0),
            "autoscaler=hybrid": (predictive, 500, 110.0),
            "autoscaler=oracle": (oracle, 500, 120.0),
        },
        name="fig15-autoscaler",
        seed=seed,
        quick=False,
    )
    holds = predictive <= reactive
    report["assert"] = [
        {
            "cell": "autoscaler=hybrid",
            "vs": ["autoscaler=reactive"],
            "lt": [],
            "le": ["slo_violation_ratio"],
            "holds": holds,
            "failed": [] if holds else ["slo_violation_ratio !<= (autoscaler=reactive)"],
        }
    ]
    return report


def test_prewarm_gate_passes_within_tolerance(tmp_path):
    baseline = write(tmp_path, "b.json", make_prewarm_report())
    fresh = write(tmp_path, "f.json", make_prewarm_report(predictive=0.012))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 0


def test_prewarm_gate_fails_on_violation_regression(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_prewarm_report(predictive=0.01))
    fresh = write(tmp_path, "f.json", make_prewarm_report(predictive=0.03))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    assert "REGRESSION" in capsys.readouterr().err


def test_prewarm_gate_fails_when_predictive_stops_beating_reactive(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_prewarm_report())
    fresh = write(tmp_path, "f.json", make_prewarm_report(reactive=0.06, predictive=0.061))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    err = capsys.readouterr().err
    assert "assertion failed: autoscaler=hybrid vs autoscaler=reactive" in err


def test_prewarm_gate_allows_near_zero_noise(tmp_path):
    baseline = write(tmp_path, "b.json", make_prewarm_report(oracle=0.0))
    fresh = write(tmp_path, "f.json", make_prewarm_report(oracle=0.004))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 0


def test_prewarm_gate_rejects_trace_mismatch(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_prewarm_report())
    fresh = write(tmp_path, "f.json", make_prewarm_report(seed=7))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 2
    assert "mismatch" in capsys.readouterr().err


def test_prewarm_gate_rejects_kind_mismatch(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_prewarm_report())
    fresh = write(tmp_path, "f.json", make_scenario_report())
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 2
    assert "not a known benchmark report" in capsys.readouterr().err


# -- scenario gate ----------------------------------------------------------------
def make_scenario_report(overall=0.05, res=0.02, bq=0.08, completed=400, seed=42):
    return {
        "benchmark": "scenario",
        "scenario": {"name": "tiny", "seed": seed},
        "totals": {"slo_violation_ratio": overall, "completed": completed},
        "functions": {
            "res": {"slo_violation_ratio": res},
            "bq": {"slo_violation_ratio": bq},
        },
    }


def test_scenario_gate_passes_within_tolerance(tmp_path):
    baseline = write(tmp_path, "b.json", make_scenario_report())
    fresh = write(tmp_path, "f.json", make_scenario_report(res=0.024))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 0


def test_scenario_gate_fails_on_function_regression(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_scenario_report())
    fresh = write(tmp_path, "f.json", make_scenario_report(bq=0.20))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    assert "REGRESSION" in capsys.readouterr().err


def test_scenario_gate_fails_on_overall_regression(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_scenario_report(overall=0.05))
    fresh = write(tmp_path, "f.json", make_scenario_report(overall=0.09))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    assert "overall" in capsys.readouterr().err


def test_scenario_gate_fails_on_completed_drop(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_scenario_report(completed=400))
    fresh = write(tmp_path, "f.json", make_scenario_report(completed=200))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    assert "completed" in capsys.readouterr().err


def test_scenario_gate_rejects_scenario_mismatch(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_scenario_report(seed=42))
    fresh = write(tmp_path, "f.json", make_scenario_report(seed=7))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 2
    assert "scenario mismatch" in capsys.readouterr().err


def test_scenario_gate_rejects_quick_vs_full_mismatch(tmp_path, capsys):
    quick_report = make_scenario_report()
    quick_report["quick"] = True
    full_report = make_scenario_report()
    full_report["quick"] = False
    baseline = write(tmp_path, "b.json", quick_report)
    fresh = write(tmp_path, "f.json", full_report)
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 2
    assert "scenario mismatch" in capsys.readouterr().err


def test_scenario_gate_passes_on_committed_baseline_against_itself():
    committed = str(_GATE_PATH.parent / "BENCH_scenario_quick.json")
    assert check_regression.main(["--baseline", committed, "--fresh", committed]) == 0


# -- sweep gate -------------------------------------------------------------------
def make_sweep_report(cells=None, name="grid", seed=7, quick=True):
    """A minimal SweepReport: ``cells`` maps key -> (violation, completed, GPU-s)."""
    if cells is None:
        cells = {
            "placement=binpack": (0.01, 500, 100.0),
            "placement=spread": (0.03, 480, 140.0),
        }
    return {
        "benchmark": "sweep",
        "quick": quick,
        "sweep": {"name": name, "base": {"seed": seed}},
        "cells": [
            {
                "key": key,
                "metrics": {
                    "slo_violation_ratio": rate,
                    "completed": completed,
                    "gpu_seconds": gpu_seconds,
                },
            }
            for key, (rate, completed, gpu_seconds) in cells.items()
        ],
    }


def test_sweep_gate_passes_within_tolerance(tmp_path):
    baseline = write(tmp_path, "b.json", make_sweep_report())
    fresh = write(
        tmp_path,
        "f.json",
        make_sweep_report(
            {"placement=binpack": (0.012, 500, 100.0), "placement=spread": (0.033, 470, 150.0)}
        ),
    )
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 0


def test_sweep_gate_fails_on_cell_violation_regression(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_sweep_report())
    fresh = write(
        tmp_path,
        "f.json",
        make_sweep_report(
            {"placement=binpack": (0.01, 500, 100.0), "placement=spread": (0.08, 480, 140.0)}
        ),
    )
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    err = capsys.readouterr().err
    assert "REGRESSION" in err and "placement=spread" in err


def test_sweep_gate_fails_on_completed_drop(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_sweep_report())
    fresh = write(
        tmp_path,
        "f.json",
        make_sweep_report(
            {"placement=binpack": (0.01, 100, 100.0), "placement=spread": (0.03, 480, 140.0)}
        ),
    )
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    assert "completed requests dropped" in capsys.readouterr().err


def test_sweep_gate_allows_near_zero_noise(tmp_path):
    baseline = write(
        tmp_path, "b.json", make_sweep_report({"placement=binpack": (0.0, 500, 100.0)})
    )
    fresh = write(tmp_path, "f.json", make_sweep_report({"placement=binpack": (0.004, 500, 100.0)}))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 0


def test_sweep_gate_rejects_missing_cells(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_sweep_report())
    fresh = write(
        tmp_path, "f.json", make_sweep_report({"placement=binpack": (0.01, 500, 100.0)})
    )
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 2
    assert "missing baseline cells" in capsys.readouterr().err


def test_sweep_gate_rejects_sweep_mismatch(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_sweep_report(seed=7))
    fresh = write(tmp_path, "f.json", make_sweep_report(seed=8))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 2
    assert "sweep mismatch" in capsys.readouterr().err


def test_sweep_gate_passes_on_committed_baseline_against_itself():
    committed = str(_GATE_PATH.parent / "BENCH_sweep_quick.json")
    assert check_regression.main(["--baseline", committed, "--fresh", committed]) == 0


def test_sweep_gate_allows_gpu_seconds_within_tolerance(tmp_path):
    baseline = write(tmp_path, "b.json", make_sweep_report())
    fresh = write(
        tmp_path,
        "f.json",
        make_sweep_report(
            {"placement=binpack": (0.01, 500, 125.0), "placement=spread": (0.03, 480, 140.0)}
        ),
    )
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 0


def test_sweep_gate_fails_on_gpu_seconds_growth(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_sweep_report())
    fresh = write(
        tmp_path,
        "f.json",
        make_sweep_report(
            {"placement=binpack": (0.01, 500, 135.0), "placement=spread": (0.03, 480, 140.0)}
        ),
    )
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    assert "placement=binpack: GPU-seconds grew 100 -> 135" in capsys.readouterr().err


@pytest.mark.parametrize("bench", ["cluster", "prewarm", "swap", "migrate"])
def test_committed_bench_baselines_pass_against_themselves(bench):
    committed = _GATE_PATH.parent / f"BENCH_{bench}_quick.json"
    report = json.loads(committed.read_text())
    assert all(result["holds"] for result in report.get("assert", ()))
    assert check_regression.main(["--baseline", str(committed), "--fresh", str(committed)]) == 0


# -- serve gate -------------------------------------------------------------------
def make_serve_baseline(max_violation=0.35):
    return {
        "benchmark": "serve",
        "scenario": "tiny-live",
        "quick": True,
        "reference": {"submitted": 100, "completed": 100, "slo_violation_ratio": 0.10},
        "gates": {
            "min_submitted_fraction": 0.98,
            "max_submitted_fraction": 1.10,
            "min_completed_fraction": 0.90,
            "max_slo_violation_ratio": max_violation,
        },
    }


def make_live_report(submitted=100, completed=100, violation=0.12, mode="live", quick=True):
    report = {
        "benchmark": "scenario",
        "scenario": {"name": "tiny-live", "seed": 7},
        "quick": quick,
        "functions": {"fn-a": {"slo_violation_ratio": violation}},
        "totals": {
            "submitted": submitted,
            "completed": completed,
            "slo_violation_ratio": violation,
        },
    }
    if mode is not None:
        report["mode"] = mode
    return report


def test_serve_gate_passes_within_bounds(tmp_path):
    baseline = write(tmp_path, "b.json", make_serve_baseline())
    fresh = write(tmp_path, "f.json", make_live_report())
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 0


def test_serve_gate_rejects_sim_report(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_serve_baseline())
    fresh = write(tmp_path, "f.json", make_live_report(mode=None))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 2
    assert "want 'live'" in capsys.readouterr().err


def test_serve_gate_fails_on_submitted_drift(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_serve_baseline())
    fresh = write(tmp_path, "f.json", make_live_report(submitted=80, completed=80))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    assert "seed-derived arrival schedule" in capsys.readouterr().err


def test_serve_gate_fails_on_low_completion(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_serve_baseline())
    fresh = write(tmp_path, "f.json", make_live_report(completed=50))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    assert "completed fraction" in capsys.readouterr().err


def test_serve_gate_fails_on_violation_ceiling(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_serve_baseline())
    fresh = write(tmp_path, "f.json", make_live_report(violation=0.50))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    assert "exceeds the documented bound" in capsys.readouterr().err


def test_serve_gate_rejects_scenario_mismatch(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_serve_baseline())
    fresh = write(tmp_path, "f.json", make_live_report(quick=False))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 2
    assert "serve-smoke mismatch" in capsys.readouterr().err


# -- migrate bench through the sweep gate ----------------------------------------
# The defrag bench is a committed sweep spec too; its spec asserts defrag-on
# uses fewer mean GPUs at <= the effective violation rate of defrag-off.
def make_migrate_report(on_viol=0.20, on_gpu_s=68.0, off_gpu_s=142.0, holds=True, fleet=6):
    report = make_sweep_report(
        {"defrag=None": (0.22, 647, off_gpu_s), "defrag=0.3": (on_viol, 647, on_gpu_s)},
        name="migrate-defrag",
        seed=42,
        quick=False,
    )
    report["sweep"]["base"].update(
        cluster={"nodes": ["V100"] * 4},
        functions=[{"name": f"burst-{i:02d}"} for i in range(fleet)],
    )
    report["assert"] = [
        {
            "cell": "defrag=0.3",
            "vs": ["defrag=None"],
            "lt": ["mean_gpus"],
            "le": ["effective_violation_ratio"],
            "holds": holds,
            "failed": [] if holds else ["mean_gpus 3.9 !< 3.7 (defrag=None)"],
        }
    ]
    return report


def test_migrate_gate_passes_on_identical_reports(tmp_path):
    baseline = write(tmp_path, "b.json", make_migrate_report())
    fresh = write(tmp_path, "f.json", make_migrate_report())
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 0


def test_migrate_gate_fails_on_violation_growth(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_migrate_report())
    fresh = write(tmp_path, "f.json", make_migrate_report(on_viol=0.40))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    assert "REGRESSION" in capsys.readouterr().err


def test_migrate_gate_fails_on_gpu_growth(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_migrate_report())
    fresh = write(tmp_path, "f.json", make_migrate_report(off_gpu_s=200.0))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    assert "defrag=None: GPU-seconds grew 142 -> 200" in capsys.readouterr().err


def test_migrate_gate_fails_when_improvement_breaks(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_migrate_report())
    fresh = write(tmp_path, "f.json", make_migrate_report(holds=False))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    assert "assertion failed: defrag=0.3 vs defrag=None" in capsys.readouterr().err


def test_migrate_gate_fails_on_saving_shrink(tmp_path, capsys):
    # Defrag-on's GPU-seconds saving shrinking from 52% to 10% is its own
    # cell's cost growing, which the per-cell GPU-seconds guard catches.
    baseline = write(tmp_path, "b.json", make_migrate_report(on_gpu_s=68.0))
    fresh = write(tmp_path, "f.json", make_migrate_report(on_gpu_s=128.0))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 1
    assert "defrag=0.3: GPU-seconds grew 68 -> 128" in capsys.readouterr().err


def test_migrate_gate_rejects_fixture_mismatch(tmp_path, capsys):
    baseline = write(tmp_path, "b.json", make_migrate_report())
    fresh = write(tmp_path, "f.json", make_migrate_report(fleet=10))
    assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 2
    assert "sweep mismatch" in capsys.readouterr().err
