"""Sweep ``assert`` blocks, path-string bases and the committed bench specs."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import pathlib

import pytest

from repro.scenario import (
    AutoscalerSpec,
    ClusterSpec,
    Scenario,
    ScenarioFunction,
    WorkloadSpec,
)
from repro.sweep import (
    CellResult,
    Sweep,
    SweepAssertion,
    SweepAxis,
    SweepError,
    SweepReport,
    effective_violation_ratio,
    load_sweep,
    load_sweep_report,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCHES = ROOT / "examples" / "benches"


def policy_sweep(*asserts: SweepAssertion) -> Sweep:
    base = Scenario(
        name="hand",
        seed=1,
        cluster=ClusterSpec(nodes=1, host_memory_mb=4096.0),
        functions=(
            ScenarioFunction(
                name="fn",
                model="resnet50",
                workload=WorkloadSpec(kind="counts", counts=(1,), bin_s=1.0),
            ),
        ),
        autoscaler=AutoscalerSpec(policy="reactive"),
    )
    return Sweep(
        name="hand-policies",
        base=base,
        axes=(SweepAxis(axis="autoscaler", values=("hybrid", "warmidle", "memtier")),),
        asserts=asserts,
    )


#: Fabricated (submitted, completed, violation ratio, GPU-s) per policy: the
#: swap bench's shape, where memtier serves everything and the baselines drop
#: work (their raw ratio is lower, their effective ratio higher).
FABRICATED = {
    "hybrid": (500, 450, 0.10, 340.0),
    "warmidle": (500, 400, 0.05, 338.0),
    "memtier": (500, 500, 0.14, 300.0),
}


def hand_report(sweep: Sweep, **overrides: tuple) -> SweepReport:
    rows = {**FABRICATED, **overrides}
    cells = tuple(
        CellResult(
            index=i,
            coords=(("autoscaler", policy),),
            scenario_name=f"hand[autoscaler={policy}]",
            seed=1,
            metrics={
                "submitted": submitted,
                "completed": completed,
                "slo_violation_ratio": ratio,
                "gpu_seconds": gpu_seconds,
            },
            report={},
        )
        for i, (policy, (submitted, completed, ratio, gpu_seconds)) in enumerate(rows.items())
    )
    return SweepReport(sweep=sweep, quick=False, cells=cells)


DOMINATES = SweepAssertion(
    cell="autoscaler=memtier",
    vs=("autoscaler=hybrid", "autoscaler=warmidle"),
    lt=("gpu_seconds",),
    le=("effective_violation_ratio",),
)


def test_assertion_holds():
    report = hand_report(policy_sweep(DOMINATES))
    (result,) = report.assertion_results()
    assert result["holds"] is True and result["failed"] == []
    payload = report.to_dict()
    assert payload["assert"] == [{**DOMINATES.to_dict(), "holds": True, "failed": []}]
    assert "assert autoscaler=memtier vs" in report.summary()


def test_assertion_fails_and_names_each_broken_check():
    # memtier now costs as much as warmidle and drops requests itself.
    report = hand_report(policy_sweep(DOMINATES), memtier=(500, 300, 0.10, 338.0))
    (result,) = report.assertion_results()
    assert result["holds"] is False
    assert result["failed"] == [
        "effective_violation_ratio 0.46 !<= 0.19 (autoscaler=hybrid)",
        "gpu_seconds 338 !< 338 (autoscaler=warmidle)",
        "effective_violation_ratio 0.46 !<= 0.24 (autoscaler=warmidle)",
    ]
    assert "FAILS: effective_violation_ratio" in report.summary()


def test_absent_counts_read_zero_in_assertions():
    check = SweepAssertion(cell="autoscaler=memtier", vs=("autoscaler=hybrid",), le=("demotions",))
    report = hand_report(policy_sweep(check))
    assert report.assertion_results()[0]["holds"] is True  # 0 <= 0


@pytest.mark.parametrize(
    "entry, message",
    [
        (
            {"cell": "autoscaler=memtiers", "vs": ["autoscaler=hybrid"], "lt": ["gpu_seconds"]},
            "assert[0].cell: unknown cell 'autoscaler=memtiers'",
        ),
        (
            {"cell": "autoscaler=memtier", "vs": ["autoscaler=hybird"], "lt": ["gpu_seconds"]},
            "assert[0].vs: unknown cell 'autoscaler=hybird'",
        ),
        (
            {"cell": "autoscaler=memtier", "vs": ["autoscaler=hybrid"], "le": ["gpu_secs"]},
            "assert[0]: unknown metric 'gpu_secs'",
        ),
        ({"cell": "autoscaler=memtier", "vs": [], "lt": ["gpu_seconds"]}, "at least one cell"),
        ({"cell": "autoscaler=memtier", "vs": ["autoscaler=hybrid"]}, "'lt' or 'le'"),
        (
            {"cell": "autoscaler=memtier", "vs": ["autoscaler=hybrid"], "gt": ["gpu_seconds"]},
            "unknown field(s) 'gt'",
        ),
    ],
)
def test_bad_assertion_raises_with_path_at_load(tmp_path, entry, message):
    spec = policy_sweep().to_dict()
    spec["assert"] = [entry]
    path = tmp_path / "bad_assert.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(SweepError) as excinfo:
        load_sweep(str(path))
    assert str(excinfo.value).startswith(f"{path}: ")
    assert message in str(excinfo.value)


def test_spec_without_block_serializes_no_assert_key():
    sweep = policy_sweep()
    assert "assert" not in sweep.to_dict()
    assert "assert" not in hand_report(sweep).to_dict()
    assert hand_report(sweep).assertion_results() == []


def test_assert_block_round_trips_through_json(tmp_path):
    sweep = policy_sweep(DOMINATES)
    path = tmp_path / "sweep.json"
    sweep.save(str(path))
    assert load_sweep(str(path)) == sweep
    report_path = tmp_path / "report.json"
    hand_report(sweep).save(str(report_path))
    assert load_sweep_report(str(report_path)).sweep.asserts == (DOMINATES,)


def test_effective_violation_ratio_counts_never_served_requests():
    assert effective_violation_ratio(
        {"submitted": 200, "completed": 150, "slo_violation_ratio": 0.2}
    ) == pytest.approx((30 + 50) / 200)
    idle = {"submitted": 0, "completed": 0, "slo_violation_ratio": 0.0}
    assert effective_violation_ratio(idle) == 0.0


# -- committed bench specs ---------------------------------------------------------
def _generator():
    spec = importlib.util.spec_from_file_location("gen_benches", BENCHES / "gen_benches.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cells_without_description(sweep: Sweep) -> list[dict]:
    return [
        dataclasses.replace(cell.scenario, description="").to_dict() for cell in sweep.cells()
    ]


BENCH_STEMS = [
    f"{name}{suffix}"
    for name in ("cluster", "prewarm", "swap", "migrate")
    for suffix in ("", "_quick")
]


@pytest.mark.parametrize("stem", BENCH_STEMS)
def test_committed_bench_spec_matches_its_generator(stem):
    generated = _generator().bench_sweeps()[stem]
    committed = load_sweep(str(BENCHES / f"{stem}.json"))
    assert committed.name == generated.name
    assert committed.asserts == generated.asserts
    assert [c.key for c in committed.cells()] == [c.key for c in generated.cells()]
    assert _cells_without_description(committed) == _cells_without_description(generated)


def test_full_swap_spec_reuses_the_committed_longtail_scenario():
    raw = json.loads((BENCHES / "swap.json").read_text())
    assert raw["base"] == "../scenarios/longtail_swap.json"
    assert load_sweep(str(BENCHES / "swap.json")).base.name == "longtail-swap"
