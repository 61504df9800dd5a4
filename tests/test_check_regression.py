"""Tests for the CI live-serve regression gate (benchmarks/check_regression.py)."""

from __future__ import annotations

import importlib.util
import json
import pathlib

_GATE_PATH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _GATE_PATH)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def write(tmp_path, name: str, report: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return str(path)


def test_gate_rejects_non_engine_report(tmp_path, capsys):
    fresh = write(tmp_path, "fresh.json", make_live_report())
    # Simulated reports are pinned byte for byte, not gated here; "engine"
    # (the retired wall-clock engine micro-benchmark) is not a gate kind either.
    for kind in ("something", "engine", "scenario", "sweep"):
        baseline = write(tmp_path, "base.json", {"benchmark": kind})
        assert check_regression.main(["--baseline", baseline, "--fresh", fresh]) == 2
        assert "not a known benchmark report" in capsys.readouterr().err


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
