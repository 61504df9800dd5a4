"""End-to-end telemetry: scenario runs, reconciliation, CLI, zero overhead."""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.obs import (
    MetricsRegistry,
    RequestSpan,
    to_chrome_trace,
    validate_chrome_trace,
    validate_prometheus_text,
)
from repro.obs.explain import explain_report, rank_violations
from repro.platform import FaSTGShare
from repro.scenario import (
    AutoscalerSpec,
    ClusterSpec,
    MeasurementSpec,
    Scenario,
    ScenarioFunction,
    WorkloadSpec,
    load_scenario,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
LONGTAIL = str(REPO_ROOT / "examples" / "scenarios" / "longtail_swap.json")


def tiny_scenario(**overrides) -> Scenario:
    base = dict(
        name="tiny-obs",
        seed=3,
        cluster=ClusterSpec(nodes=("V100",)),
        functions=(
            ScenarioFunction(
                name="res",
                model="resnet50",
                workload=WorkloadSpec(kind="counts", counts=(15, 25, 10), bin_s=3.0),
            ),
        ),
        autoscaler=AutoscalerSpec(policy="reactive", interval=0.5),
        measurement=MeasurementSpec(drain_s=2.0, sample_dt=0.5),
    )
    base.update(overrides)
    return Scenario(**base)


def _with_telemetry(scenario: Scenario) -> Scenario:
    return dataclasses.replace(
        scenario,
        measurement=dataclasses.replace(scenario.measurement, telemetry=True),
    )


@pytest.fixture(scope="module")
def longtail_report():
    """One telemetry-enabled quick longtail_swap run shared by this module."""
    scenario = _with_telemetry(load_scenario(LONGTAIL))
    return FaSTGShare.run_scenario(scenario, quick=True)


# -- off by default: reports byte-identical with telemetry disabled -----------


def test_telemetry_off_keeps_report_and_hub_empty():
    report = FaSTGShare.run_scenario(tiny_scenario())
    assert report.telemetry is None
    assert "telemetry" not in report.to_dict()
    assert "telemetry" not in report.to_dict()["scenario"]["measurement"]


def test_telemetry_off_report_json_is_byte_identical_to_seed_shape():
    """Enabling then disabling telemetry must not perturb serialization."""
    off = FaSTGShare.run_scenario(tiny_scenario()).to_json()
    on = FaSTGShare.run_scenario(_with_telemetry(tiny_scenario()))
    off_again = FaSTGShare.run_scenario(tiny_scenario()).to_json()
    assert off == off_again
    assert on.telemetry is not None
    # the measured numbers are identical with telemetry on — observation
    # does not perturb the simulation
    on_dict = on.to_dict()
    on_dict.pop("telemetry")
    on_dict["scenario"]["measurement"].pop("telemetry")
    assert json.dumps(on_dict, indent=2, sort_keys=True) + "\n" == off


def test_measurement_telemetry_spec_round_trip():
    scenario = _with_telemetry(tiny_scenario())
    payload = scenario.to_dict()
    assert payload["measurement"]["telemetry"] is True
    clone = Scenario.from_dict(payload)
    assert clone.measurement.telemetry is True
    assert "telemetry" not in tiny_scenario().to_dict().get("measurement", {})


# -- telemetry block shape ----------------------------------------------------


def test_telemetry_block_shape(longtail_report):
    block = longtail_report.telemetry
    assert block["format"] == "repro-telemetry/1"
    assert block["dropped"] == 0
    assert block["end"] > block["t0"] >= 0.0
    assert block["events"] and block["spans"]
    sources = {e["source"] for e in block["events"]}
    assert {"gateway", "replica", "scheduler", "autoscaler", "memtier", "pod"} <= sources
    times = [e["time"] for e in block["events"]]
    assert times == sorted(times)
    # the block is JSON-serializable as-is (no objects leak through)
    json.dumps(block)


def test_scheduler_nofit_events_carry_per_node_reject_reasons():
    """A full cluster's no-fit records why every node rejected the placement."""
    from repro.faas.loadgen import OpenLoopGenerator
    from repro.faas.workload import StepTrace
    from repro.models import get_model
    from repro.profiler import ProfileDatabase

    platform = FaSTGShare.build(nodes=1, sharing="fast", seed=9)
    platform.engine.hub.enabled = True
    platform.register_function("fn", model="resnet50", model_sharing=True)
    db = ProfileDatabase.analytic({"fn": get_model("resnet50")})
    platform.start_autoscaler(
        db, AutoscalerSpec(interval=1.0, headroom=1.10, scale_down_cooldown=6.0)
    )
    platform.deploy("fn", configs=[(100, 1.0)])  # fill the only GPU
    platform.wait_ready()
    OpenLoopGenerator(
        platform.engine, platform.gateway, "fn", StepTrace([(6.0, 400)], poisson=False)
    )
    platform.engine.run(until=platform.engine.now + 6.0)
    nofits = [
        e
        for e in platform.engine.hub.events
        if e.source == "scheduler" and e.kind == "nofit"
    ]
    assert nofits
    # The deployed pod fills the scheduler's ledger too: no scale-up lands.
    assert not any(
        e.source == "scheduler" and e.kind == "up" for e in platform.engine.hub.events
    )
    for event in nofits:
        rejects = event.payload["rejects"]
        assert len(rejects) == 1  # one node in this cluster
        for reject in rejects:
            assert reject["reason"] in ("fragmented", "no-gpu-memory", "no-capacity")
            assert reject["node"]


def test_autoscaler_ticks_record_forecast_inputs(longtail_report):
    ticks = [
        e
        for e in longtail_report.telemetry["events"]
        if e["source"] == "autoscaler" and e["kind"] == "tick"
    ]
    assert ticks
    # forecast inputs land in the payload; all-idle views are filtered out
    assert all(t["payload"] for t in ticks)
    keys = set().union(*(t["payload"].keys() for t in ticks))
    assert {"serving", "capacity_rps"} <= keys
    assert any("predicted_rps" in t["payload"] or "next_active" in t["payload"] for t in ticks)


def test_memtier_events_record_fabric_contention(longtail_report):
    promotes = [
        e
        for e in longtail_report.telemetry["events"]
        if e["source"] == "memtier" and e["kind"] == "promote"
    ]
    assert promotes, "quick longtail_swap should swap pods back in"
    for event in promotes:
        assert "fabric_active" in event["payload"]
        assert "estimate_s" in event["payload"]


# -- reconciliation: span segments vs RunReport wait means --------------------


def test_span_waits_reconcile_with_run_report_means(longtail_report):
    block = longtail_report.telemetry
    t0, end = block["t0"], block["end"]
    spans = [RequestSpan.from_dict(s) for s in block["spans"]]
    for outcome in longtail_report.functions:
        run = outcome.run
        if not run.completed:
            continue
        window = [
            s
            for s in spans
            if s.function == outcome.name
            and s.completed
            and s.end is not None
            and t0 <= s.end < end
        ]
        assert len(window) == run.completed
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        assert mean([1000.0 * s.cold_wait_s for s in window]) == pytest.approx(
            run.cold_wait_ms_mean, abs=1e-9
        )
        assert mean([1000.0 * s.swap_wait_s for s in window]) == pytest.approx(
            run.swap_wait_ms_mean, abs=1e-9
        )
        assert mean([1000.0 * s.queue_wait_s for s in window]) == pytest.approx(
            run.queue_wait_ms_mean, abs=1e-9
        )


def test_span_assembly_matches_serialized_spans(longtail_report):
    block = longtail_report.telemetry
    # round trip: spans serialized in the report == spans reassembled from
    # the serialized event stream (modulo the dict encoding)
    spans = [s for s in block["spans"]]
    assert all(s["request_id"] >= 0 for s in spans)
    completed = [s for s in spans if s.get("completed")]
    assert completed
    for s in completed:
        assert s["end"] >= s["start"] >= s["arrival"]


# -- metrics + exports --------------------------------------------------------


def test_metrics_snapshot_matches_events_and_validates(longtail_report):
    block = longtail_report.telemetry
    registry = MetricsRegistry.from_dict(block["metrics"])
    text = registry.to_prometheus_text()
    validate_prometheus_text(text)
    counters = block["metrics"]["counters"]
    total = sum(c["value"] for c in counters["repro_requests_total"])
    assert total == len(block["spans"])
    completed = sum(c["value"] for c in counters["repro_requests_completed_total"])
    assert completed == sum(1 for s in block["spans"] if s.get("completed"))
    events_gauge = block["metrics"]["gauges"]["repro_telemetry_events"][0]["value"]
    assert events_gauge == len(block["events"])


def test_chrome_trace_export_validates_and_reconciles(longtail_report):
    block = longtail_report.telemetry
    spans = [RequestSpan.from_dict(s) for s in block["spans"]]
    trace = to_chrome_trace(spans, clip_s=block["end"])
    validate_chrome_trace(trace)
    slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    by_track: dict[tuple, int] = {}
    for s in slices:
        if s["cat"] == "request" and "unfinished" not in s["name"]:
            by_track[(s["pid"], s["tid"])] = by_track.get((s["pid"], s["tid"]), 0) + s["dur"]
    completed = {
        (s.function, s.request_id): s for s in spans if s.completed and s.latency_ms
    }
    assert len(by_track) >= len(completed) > 0
    # every completed span's slice durations sum to its latency (µs rounding)
    functions = sorted({s.function for s in spans})
    pid_of = {name: i + 1 for i, name in enumerate(functions)}
    for (fn, rid), span in completed.items():
        total_us = by_track[(pid_of[fn], rid)]
        assert total_us == pytest.approx(span.latency_ms * 1000.0, abs=3.0)


# -- explain ------------------------------------------------------------------


def test_explain_names_worst_violations_with_causes(longtail_report):
    payload = longtail_report.to_dict()
    violations = rank_violations(payload, worst=3)
    assert len(violations) == 3
    # ranked by severity: never-served first, then descending excess
    excesses = [v.excess_ms for v in violations if v.excess_ms is not None]
    assert excesses == sorted(excesses, reverse=True)
    for violation in violations:
        assert violation.causes, "every worst violation should have a causal chain"
    text = explain_report(payload, worst=3)
    assert "Worst 3 SLO violation(s)" in text
    assert "segments:" in text or "NEVER SERVED" in text
    assert "parked at t=" in text


def test_explain_function_filter(longtail_report):
    payload = longtail_report.to_dict()
    worst_fn = rank_violations(payload, worst=1)[0].span.function
    scoped = rank_violations(payload, function=worst_fn, worst=3)
    assert all(v.span.function == worst_fn for v in scoped)
    assert f"for function {worst_fn!r}" in explain_report(payload, function=worst_fn)
