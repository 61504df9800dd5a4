"""Scenario spec: JSON round-trip determinism and strict validation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.scenario import (
    AutoscalerSpec,
    ClusterSpec,
    MeasurementSpec,
    Scenario,
    ScenarioError,
    ScenarioFunction,
    WorkloadSpec,
)


def sample_scenario() -> Scenario:
    return Scenario(
        name="sample",
        description="exercises every workload kind",
        seed=9,
        cluster=ClusterSpec(nodes=("V100", "A100")),
        functions=(
            ScenarioFunction(
                name="synthetic-fn",
                model="resnet50",
                workload=WorkloadSpec(
                    kind="synthetic", shape="bursty", mean_rps=5.0, bins=6, bin_s=3.0
                ),
            ),
            ScenarioFunction(
                name="counts-fn",
                model="bert",
                slo_ms=200.0,
                min_replicas=2,
                workload=WorkloadSpec(kind="counts", counts=(3, 0, 7, 2), bin_s=2.0),
            ),
            ScenarioFunction(
                name="steps-fn",
                model="rnnt",
                model_sharing=False,
                workload=WorkloadSpec(kind="steps", steps=((4.0, 2.0), (4.0, 8.0))),
            ),
            ScenarioFunction(
                name="constant-fn",
                model="resnet152",
                initial_replicas=2,
                workload=WorkloadSpec(kind="constant", rps=3.0, duration=6.0, poisson=False),
            ),
        ),
        autoscaler=AutoscalerSpec(policy="ewma", interval=0.5, down_hysteresis=0.2),
        measurement=MeasurementSpec(drain_s=1.0, sample_dt=0.5),
    )


def test_json_round_trip_is_deterministic():
    scenario = sample_scenario()
    text = scenario.to_json()
    again = Scenario.from_json(text)
    assert again == scenario
    assert again.to_json() == text  # byte-identical re-serialization
    # and a second round trip stays fixed
    assert Scenario.from_json(again.to_json()).to_json() == text


def test_defaults_are_omitted_from_json():
    scenario = sample_scenario()
    payload = scenario.to_dict()
    # model_sharing defaults to True and min_replicas to 1: only deviations
    # appear in the serialized form.
    by_name = {f["name"]: f for f in payload["functions"]}
    assert "model_sharing" not in by_name["synthetic-fn"]
    assert by_name["steps-fn"]["model_sharing"] is False
    assert by_name["counts-fn"]["min_replicas"] == 2
    assert "min_replicas" not in by_name["synthetic-fn"]


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.__setitem__("nmae", "x"), "unknown field"),
        (lambda d: d["functions"][0].__setitem__("modle", "resnet50"), "unknown field"),
        (lambda d: d["functions"][0]["workload"].__setitem__("shapee", "bursty"), "shapee"),
        (lambda d: d["functions"][0]["workload"].__setitem__("kind", "sin"), "unknown kind"),
        (lambda d: d["functions"][0].__setitem__("model", "resnet9000"), "unknown model"),
        (lambda d: d["autoscaler"].__setitem__("policy", "hybrdi"), "unknown policy"),
        (lambda d: d["autoscaler"].__setitem__("placement", "binpak"), "unknown placement"),
        (lambda d: d["cluster"].__setitem__("nodes", ["H900"]), "unknown GPU type"),
        (lambda d: d.__setitem__("format", "fast-gshare-scenario/999"), "unsupported format"),
        (lambda d: d.__setitem__("functions", []), "at least one function"),
        # strict typing: no silent coercion of a wrong-typed value
        (lambda d: d["autoscaler"].__setitem__("enabled", "false"), r"autoscaler\.enabled"),
        (
            lambda d: d["functions"][0].__setitem__("model_sharing", "false"),
            r"functions\[0\]\.model_sharing",
        ),
        (lambda d: d["functions"][0].__setitem__("name", None), r"functions\[0\]\.name"),
        (
            lambda d: d["functions"][2]["workload"].__setitem__("poisson", 0),
            r"functions\[2\]\.workload\.poisson",
        ),
        (lambda d: d.__setitem__("description", 5), "description"),
    ],
)
def test_invalid_specs_raise_scenario_error(mutate, message):
    payload = sample_scenario().to_dict()
    mutate(payload)
    with pytest.raises(ScenarioError, match=message):
        Scenario.from_dict(payload)


def test_error_messages_carry_the_offending_path():
    payload = sample_scenario().to_dict()
    payload["functions"][2]["workload"]["bogus"] = 1
    with pytest.raises(ScenarioError, match=r"functions\[2\].workload"):
        Scenario.from_dict(payload)


def test_duplicate_function_names_rejected():
    fn = sample_scenario().functions[0]
    with pytest.raises(ScenarioError, match="duplicate"):
        Scenario(name="dup", functions=(fn, fn))


def test_autoscaler_requires_fast_sharing():
    fn = sample_scenario().functions[0]
    with pytest.raises(ScenarioError, match="sharing='fast'"):
        Scenario(
            name="bad",
            functions=(fn,),
            cluster=ClusterSpec(nodes=1, sharing="racing"),
        )
    # the static form is fine
    Scenario(
        name="ok",
        functions=(fn,),
        cluster=ClusterSpec(nodes=1, sharing="racing"),
        autoscaler=AutoscalerSpec(enabled=False),
    )


def static_pods_function(**overrides) -> ScenarioFunction:
    return ScenarioFunction(
        name="fn",
        model="resnet50",
        workload=WorkloadSpec(kind="constant", rps=3.0, duration=6.0),
        **{"pods": ((12.0, 0.4),) * 3, **overrides},
    )


@pytest.mark.parametrize("pod", [(0.0, 0.4), (100.5, 0.4), (12.0, 0.0), (12.0, 1.2)])
def test_pods_reject_sm_or_quota_out_of_range(pod):
    with pytest.raises(ScenarioError, match="pods need"):
        static_pods_function(pods=(pod,))
    static_pods_function(pods=((100.0, 1.0),))  # both bounds are inclusive at the top


def test_pods_reject_initial_replicas():
    with pytest.raises(ScenarioError, match="pods or initial_replicas"):
        static_pods_function(initial_replicas=2)
    assert static_pods_function().initial_count == 3


def test_pods_reject_the_autoscaler():
    fn = static_pods_function()
    with pytest.raises(ScenarioError, match="pods deploy statically"):
        Scenario(name="bad", functions=(fn,))
    static = Scenario(name="ok", functions=(fn,), autoscaler=AutoscalerSpec(enabled=False))
    assert Scenario.from_json(static.to_json()) == static


def test_workload_validation():
    with pytest.raises(ScenarioError, match="counts"):
        WorkloadSpec(kind="counts", counts=())
    with pytest.raises(ScenarioError, match="non-negative"):
        WorkloadSpec(kind="counts", counts=(1, -2))
    with pytest.raises(ScenarioError, match="path"):
        WorkloadSpec(kind="trace")
    with pytest.raises(ScenarioError, match="bad step"):
        WorkloadSpec(kind="steps", steps=((0.0, 5.0),))
    with pytest.raises(ScenarioError, match="unknown shape"):
        WorkloadSpec(kind="synthetic", shape="spiky")


def test_quick_variant_shrinks_deterministically():
    scenario = sample_scenario()
    quick = scenario.quick()
    assert quick == scenario.quick()  # pure function of the spec
    synthetic = quick.function("synthetic-fn").workload
    assert synthetic.bins == 6 and synthetic.bin_s == 3.0  # already small
    big = dataclasses.replace(
        scenario,
        functions=(
            dataclasses.replace(
                scenario.functions[0],
                workload=WorkloadSpec(kind="synthetic", bins=100, bin_s=60.0),
            ),
        ),
    )
    shrunk = big.quick().functions[0].workload
    assert shrunk.bins == 8 and shrunk.bin_s == 3.0
    # steps horizons scale down to <= 40 s, preserving the staircase ratios
    long_steps = WorkloadSpec(kind="steps", steps=((100.0, 10.0), (100.0, 20.0)))
    from repro.scenario.spec import _quick_workload

    qs = _quick_workload(long_steps)
    assert sum(d for d, _ in qs.steps) == pytest.approx(40.0)
    assert [r for _, r in qs.steps] == [10.0, 20.0]


def test_quick_variant_slices_trace_workloads():
    trace_spec = WorkloadSpec(kind="trace", path="examples/traces/azure_medium.json")
    from repro.scenario.spec import _quick_workload

    assert _quick_workload(trace_spec).max_bins == 8
    # An explicit tighter window survives quick(); a looser one is clamped.
    assert _quick_workload(dataclasses.replace(trace_spec, max_bins=4)).max_bins == 4
    assert _quick_workload(dataclasses.replace(trace_spec, max_bins=50)).max_bins == 8


def test_trace_max_bins_validation_and_round_trip():
    with pytest.raises(ScenarioError, match="max_bins"):
        WorkloadSpec(kind="trace", path="t.json", max_bins=-1)
    with pytest.raises(ScenarioError, match="max_bins"):
        WorkloadSpec(kind="counts", counts=(1,), max_bins=4)
    spec = WorkloadSpec(kind="trace", path="t.json", max_bins=6)
    assert WorkloadSpec.from_dict(spec.to_dict()) == spec
    assert spec.to_dict()["max_bins"] == 6
    # max_bins=0 (replay everything) stays out of the serialized form.
    assert "max_bins" not in WorkloadSpec(kind="trace", path="t.json").to_dict()


def test_scenario_function_lookup():
    scenario = sample_scenario()
    assert scenario.function("counts-fn").model == "bert"
    with pytest.raises(KeyError):
        scenario.function("nope")
