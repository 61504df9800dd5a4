"""Scenario runner: one spec → serve, measure, report — behavioural contracts."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.platform import FaSTGShare
from repro.scenario import (
    AutoscalerSpec,
    ClusterSpec,
    MeasurementSpec,
    Scenario,
    ScenarioError,
    ScenarioFunction,
    WorkloadSpec,
    resolve_workload,
    run_scenario,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def tiny_scenario(**overrides) -> Scenario:
    base = dict(
        name="tiny",
        seed=3,
        cluster=ClusterSpec(nodes=("V100", "T4")),
        functions=(
            ScenarioFunction(
                name="res",
                model="resnet50",
                workload=WorkloadSpec(kind="counts", counts=(20, 35, 10, 25), bin_s=3.0),
            ),
            ScenarioFunction(
                name="bq",
                model="bert",
                workload=WorkloadSpec(kind="steps", steps=((6.0, 2.0), (6.0, 5.0))),
            ),
        ),
        autoscaler=AutoscalerSpec(policy="reactive", interval=0.5),
        measurement=MeasurementSpec(drain_s=2.0, sample_dt=0.5),
    )
    base.update(overrides)
    return Scenario(**base)


def test_report_shape_and_invariants():
    report = FaSTGShare.run_scenario(tiny_scenario())
    assert {o.name for o in report.functions} == {"res", "bq"}
    assert report.completed == sum(o.run.completed for o in report.functions)
    assert report.submitted == sum(o.run.submitted for o in report.functions)
    assert report.completed > 0
    assert 0.0 <= report.overall_violation_ratio <= 1.0
    assert report.horizon == pytest.approx(12.0)
    assert report.duration == pytest.approx(14.0)  # horizon + drain
    assert 1 <= report.peak_gpus <= 2
    assert report.gpu_seconds > 0
    assert len(report.utilization) >= 10
    # the counts workload carries its trace shape into the outcome
    assert report.function("res").shape is not None
    assert report.function("bq").shape is None  # steps have no trace shape


def test_run_is_deterministic():
    first = run_scenario(tiny_scenario())
    second = run_scenario(tiny_scenario())
    assert first.to_json() == second.to_json()


def test_report_json_is_self_contained(tmp_path):
    report = run_scenario(tiny_scenario())
    path = tmp_path / "report.json"
    payload = report.save(str(path))
    on_disk = json.loads(path.read_text())
    assert on_disk == payload
    assert on_disk["benchmark"] == "scenario"
    # the embedded spec replays: loading it re-runs the same scenario
    again = Scenario.from_dict(on_disk["scenario"])
    assert run_scenario(again).to_json() == report.to_json()


def test_trace_kind_replays_committed_file():
    trace_path = REPO_ROOT / "examples" / "traces" / "cold_bursty_small.json"
    trace_payload = json.loads(trace_path.read_text())
    entry = trace_payload["traces"][0]
    scenario = Scenario(
        name="replay",
        seed=5,
        cluster=ClusterSpec(nodes=("V100", "A100")),
        functions=(
            ScenarioFunction(
                name="replayed",
                model=entry["model"],
                workload=WorkloadSpec(
                    kind="trace", path=str(trace_path), trace_function=entry["function"]
                ),
            ),
        ),
        autoscaler=AutoscalerSpec(policy="reactive", interval=0.5),
    )
    workload, trace = resolve_workload(scenario.functions[0], scenario.seed)
    assert trace is not None
    assert list(trace.counts) == list(entry["counts"])
    report = run_scenario(scenario)
    assert report.function("replayed").run.submitted == sum(entry["counts"])


def test_trace_kind_unknown_entry_raises():
    trace_path = REPO_ROOT / "examples" / "traces" / "cold_bursty_small.json"
    scenario = Scenario(
        name="replay",
        functions=(
            ScenarioFunction(
                name="missing-entry",
                model="bert",
                workload=WorkloadSpec(kind="trace", path=str(trace_path)),
            ),
        ),
    )
    with pytest.raises(ScenarioError, match="no entry"):
        run_scenario(scenario)


def test_oracle_policy_requires_count_based_workloads():
    scenario = tiny_scenario(
        autoscaler=AutoscalerSpec(policy="oracle", interval=0.5)
    )
    # "bq" declares a steps workload — no counts for the oracle to read.
    with pytest.raises(ScenarioError, match="oracle"):
        run_scenario(scenario)


def test_min_replicas_floor_is_defended():
    scenario = tiny_scenario(
        functions=(
            ScenarioFunction(
                name="res",
                model="resnet50",
                min_replicas=2,
                workload=WorkloadSpec(kind="counts", counts=(2, 1, 2, 1), bin_s=3.0),
            ),
        ),
    )
    report = run_scenario(scenario)
    # Load is trivial, but the declared per-function floor keeps 2 replicas:
    # every replica-series entry after the first tick stays >= 2.
    assert report.replica_series, "scheduler recorded no replica series"
    assert all(counts["res"] >= 2 for _, counts in report.replica_series)


def test_initial_replicas_zero_starts_cold():
    scenario = tiny_scenario(
        functions=(
            ScenarioFunction(
                name="res",
                model="resnet50",
                min_replicas=0,
                initial_replicas=0,
                workload=WorkloadSpec(kind="counts", counts=(0, 12, 12, 8), bin_s=3.0),
            ),
        ),
    )
    report = run_scenario(scenario)
    outcome = report.function("res")
    # Nothing was deployed up front, so serving requires reactive scale-ups
    # and the first served requests pay attributable cold waits.
    assert report.events["scale_ups"] >= 1
    assert outcome.run.cold_hit_requests > 0


def test_static_mode_serves_without_autoscaler():
    scenario = Scenario(
        name="static-racing",
        seed=11,
        cluster=ClusterSpec(nodes=1, gpu="V100", sharing="racing"),
        functions=(
            ScenarioFunction(
                name="res",
                model="resnet50",
                model_sharing=False,
                initial_replicas=2,
                workload=WorkloadSpec(kind="constant", rps=10.0, duration=6.0),
            ),
        ),
        autoscaler=AutoscalerSpec(enabled=False),
    )
    report = run_scenario(scenario)
    assert report.events["scale_ups"] == 0 and report.events["prewarms"] == 0
    assert report.function("res").run.completed > 0
    assert report.replica_series == ()  # no control loop, no series


def test_baseline_allocation_is_hosted_quota_capped_at_one_gpu():
    def static(sharing: str) -> Scenario:
        return Scenario(
            name=f"alloc-{sharing}",
            seed=5,
            cluster=ClusterSpec(nodes=2, gpu="V100", sharing=sharing),
            functions=(
                ScenarioFunction(
                    name="res",
                    model="resnet50",
                    pods=((100.0, 0.5),) * 3,
                    workload=WorkloadSpec(kind="constant", rps=5.0, duration=3.0),
                ),
            ),
            autoscaler=AutoscalerSpec(enabled=False),
            measurement=MeasurementSpec(drain_s=0.0, sample_dt=0.5),
        )

    # A baseline pod may use every SM, so a GPU's allocated area is its
    # pods' summed quota limits.  Time sharing fits by quota: two pods fill
    # node 0 and the third lands on node 1.
    timeshare = run_scenario(static("timeshare"))
    assert timeshare.utilization
    for sample in timeshare.utilization:
        assert sample.gpus_in_use == 2
        assert sample.alloc_by_node == pytest.approx({"node0": 1.0, "node1": 0.5})
    assert timeshare.mean_alloc_fraction == pytest.approx(0.75)
    # Racing piles all three onto node 0: 1.5 GPUs of quota cap at one GPU.
    racing = run_scenario(static("racing"))
    assert {tuple(s.alloc_by_node.items()) for s in racing.utilization} == {(("node0", 1.0),)}
    assert racing.mean_alloc_fraction == 1.0


def test_warmup_excludes_ramp_from_all_measurements():
    warm = tiny_scenario(
        measurement=MeasurementSpec(warmup_s=6.0, drain_s=2.0, sample_dt=0.5)
    )
    cold = tiny_scenario(
        measurement=MeasurementSpec(warmup_s=0.0, drain_s=2.0, sample_dt=0.5)
    )
    warm_report = run_scenario(warm)
    cold_report = run_scenario(cold)
    # The measured window opens at warm-up end: horizon 12 s - 6 s + 2 s drain.
    assert warm_report.duration == pytest.approx(8.0)
    assert cold_report.duration == pytest.approx(14.0)
    # Utilization samples (and so GPU-seconds) cover only the window, on the
    # window's own time base.
    assert warm_report.utilization[0].time >= 0.0
    assert warm_report.utilization[-1].time <= warm_report.duration
    assert warm_report.gpu_seconds < cold_report.gpu_seconds
    # Submitted/completed counts exclude warm-up traffic too.
    assert warm_report.submitted < cold_report.submitted


def test_warmup_keeps_replica_series_inside_the_window():
    warm = tiny_scenario(
        measurement=MeasurementSpec(warmup_s=6.0, drain_s=2.0, sample_dt=0.5)
    )
    report = run_scenario(warm)
    # Scheduler ticks fire from t=0, but the reported series starts at the
    # warm-up boundary on the window's own time base — no negative times.
    assert report.replica_series, "scheduler recorded no replica series"
    assert all(t >= 0.0 for t, _ in report.replica_series)
    assert report.replica_series[0][0] <= report.duration


def test_trace_max_bins_slices_the_replayed_window():
    trace_path = REPO_ROOT / "examples" / "traces" / "cold_bursty_small.json"
    trace_payload = json.loads(trace_path.read_text())
    entry = trace_payload["traces"][0]
    scenario = Scenario(
        name="sliced",
        seed=5,
        cluster=ClusterSpec(nodes=("V100",)),
        functions=(
            ScenarioFunction(
                name="replayed",
                model=entry["model"],
                workload=WorkloadSpec(
                    kind="trace",
                    path=str(trace_path),
                    trace_function=entry["function"],
                    max_bins=3,
                ),
            ),
        ),
        autoscaler=AutoscalerSpec(policy="reactive", interval=0.5),
    )
    workload, trace = resolve_workload(scenario.functions[0], scenario.seed)
    assert list(trace.counts) == list(entry["counts"][:3])
    assert workload.duration == pytest.approx(3 * entry["bin_s"])
    report = run_scenario(scenario)
    assert report.function("replayed").run.submitted == sum(entry["counts"][:3])


def test_quick_slices_trace_workloads_end_to_end():
    trace_path = REPO_ROOT / "examples" / "traces" / "azure_medium.json"
    trace_payload = json.loads(trace_path.read_text())
    entry = trace_payload["traces"][0]
    scenario = Scenario(
        name="azure-one",
        seed=5,
        cluster=ClusterSpec(nodes=("V100",)),
        functions=(
            ScenarioFunction(
                name=entry["function"],
                model=entry["model"],
                workload=WorkloadSpec(kind="trace", path=str(trace_path)),
            ),
        ),
        autoscaler=AutoscalerSpec(policy="reactive", interval=0.5),
    )
    assert len(entry["counts"]) > 8  # the committed slice is multi-hour
    report = run_scenario(scenario, quick=True)
    # The quick replay covers exactly the first 8 bins of the committed file.
    assert report.horizon == pytest.approx(8 * entry["bin_s"])
    assert report.function(entry["function"]).run.submitted == sum(entry["counts"][:8])


def test_quick_flag_uses_shrunk_variant():
    scenario = tiny_scenario(
        functions=(
            ScenarioFunction(
                name="res",
                model="resnet50",
                workload=WorkloadSpec(
                    kind="synthetic", shape="diurnal", mean_rps=8.0, bins=50, bin_s=10.0
                ),
            ),
        ),
    )
    report = run_scenario(scenario, quick=True)
    assert report.quick is True
    assert report.horizon == pytest.approx(8 * 3.0)  # 8 bins x 3 s
    assert report.scenario.functions[0].workload.bins == 8
