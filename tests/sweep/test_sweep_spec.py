"""Sweep spec contracts: grid expansion, seeding, validation, JSON round-trip."""

from __future__ import annotations

import zlib

import pytest

from repro.scenario import (
    AutoscalerSpec,
    ClusterSpec,
    Scenario,
    ScenarioFunction,
    WorkloadSpec,
)
from repro.sweep import (
    Sweep,
    SweepAxis,
    SweepError,
    apply_axis,
    coords_key,
    derive_cell_seed,
    load_sweep,
)


def base_scenario(n_functions: int = 3, **overrides) -> Scenario:
    models = ("resnet50", "bert", "resnet152", "rnnt")
    base = dict(
        name="base",
        seed=7,
        cluster=ClusterSpec(nodes=("V100", "T4")),
        functions=tuple(
            ScenarioFunction(
                name=f"fn{i}",
                model=models[i % len(models)],
                workload=WorkloadSpec(kind="counts", counts=(5, 9, 3), bin_s=3.0),
            )
            for i in range(n_functions)
        ),
        autoscaler=AutoscalerSpec(policy="reactive", interval=0.5),
    )
    base.update(overrides)
    return Scenario(**base)


def test_expansion_is_row_major_last_axis_fastest():
    sweep = Sweep(
        name="grid",
        base=base_scenario(),
        axes=(
            SweepAxis(axis="placement", values=("binpack", "spread")),
            SweepAxis(axis="headroom", values=(1.3, 2.0)),
        ),
    )
    assert sweep.cell_count == 4
    keys = [cell.key for cell in sweep.cells()]
    assert keys == [
        "placement=binpack,headroom=1.3",
        "placement=binpack,headroom=2.0",
        "placement=spread,headroom=1.3",
        "placement=spread,headroom=2.0",
    ]
    # Swapping axis order changes the expansion order accordingly.
    swapped = Sweep(
        name="grid",
        base=base_scenario(),
        axes=(
            SweepAxis(axis="headroom", values=(1.3, 2.0)),
            SweepAxis(axis="placement", values=("binpack", "spread")),
        ),
    )
    assert [cell.key for cell in swapped.cells()] == [
        "headroom=1.3,placement=binpack",
        "headroom=1.3,placement=spread",
        "headroom=2.0,placement=binpack",
        "headroom=2.0,placement=spread",
    ]


def test_axes_apply_to_cell_scenarios():
    sweep = Sweep(
        name="grid",
        base=base_scenario(),
        axes=(
            SweepAxis(axis="fleet_size", values=(1, 3)),
            SweepAxis(axis="placement", values=("spread",)),
            SweepAxis(axis="nodes", values=(2,)),
            SweepAxis(axis="headroom", values=(1.5,)),
        ),
    )
    small, full = sweep.cells()
    assert [f.name for f in small.scenario.functions] == ["fn0"]
    assert [f.name for f in full.scenario.functions] == ["fn0", "fn1", "fn2"]
    for cell in (small, full):
        assert cell.scenario.autoscaler.placement == "spread"
        assert cell.scenario.autoscaler.headroom == 1.5
        assert cell.scenario.cluster.nodes == 2
        assert cell.scenario.name == f"base[{cell.key}]"


def test_workload_scale_scales_every_kind():
    scenario = base_scenario(
        functions=(
            ScenarioFunction(
                name="syn",
                model="resnet50",
                workload=WorkloadSpec(kind="synthetic", mean_rps=10.0, bins=4, bin_s=3.0),
            ),
            ScenarioFunction(
                name="cnt",
                model="bert",
                workload=WorkloadSpec(kind="counts", counts=(4, 10), bin_s=3.0),
            ),
            ScenarioFunction(
                name="stp",
                model="rnnt",
                workload=WorkloadSpec(kind="steps", steps=((5.0, 2.0),)),
            ),
            ScenarioFunction(
                name="cst",
                model="resnet152",
                workload=WorkloadSpec(kind="constant", rps=3.0, duration=6.0),
            ),
        )
    )
    scaled = apply_axis(scenario, "workload_scale", 2.5)
    assert scaled.function("syn").workload.mean_rps == pytest.approx(25.0)
    assert scaled.function("cnt").workload.counts == (10, 25)
    assert scaled.function("stp").workload.steps == ((5.0, 5.0),)
    assert scaled.function("cst").workload.rps == pytest.approx(7.5)


def test_workload_scale_rejects_trace_kind():
    scenario = base_scenario(
        functions=(
            ScenarioFunction(
                name="tr",
                model="resnet50",
                workload=WorkloadSpec(kind="trace", path="some/file.json"),
            ),
        )
    )
    with pytest.raises(SweepError, match="trace"):
        Sweep(
            name="bad",
            base=scenario,
            axes=(SweepAxis(axis="workload_scale", values=(2.0,)),),
        )


def test_shared_seed_by_default_and_derived_on_reseed():
    axes = (SweepAxis(axis="placement", values=("binpack", "spread")),)
    shared = Sweep(name="s", base=base_scenario(), axes=axes)
    assert [c.scenario.seed for c in shared.cells()] == [7, 7]

    reseeded = Sweep(name="s", base=base_scenario(), axes=axes, reseed=True)
    seeds = [c.scenario.seed for c in reseeded.cells()]
    assert len(set(seeds)) == 2
    # The derivation is pure CRC mixing — stable across processes/versions.
    expected = (7 ^ zlib.crc32(b"placement=binpack")) & 0x7FFFFFFF
    assert seeds[0] == expected == derive_cell_seed(7, "placement=binpack")
    assert derive_cell_seed(7, "placement=binpack") == derive_cell_seed(
        7, "placement=binpack"
    )


def test_coords_key_renders_node_lists():
    assert coords_key((("nodes", ("V100", "T4")), ("fleet_size", 2))) == (
        "nodes=V100+T4,fleet_size=2"
    )


@pytest.mark.parametrize(
    "axes, message",
    [
        ((), "at least one axis"),
        ((SweepAxis(axis="placement", values=("binpack",)),) * 2, "duplicate axes"),
        ((SweepAxis(axis="fleet_size", values=(9,)),), "exceeds the base fleet"),
    ],
)
def test_sweep_validation_errors(axes, message):
    with pytest.raises(SweepError, match=message):
        Sweep(name="bad", base=base_scenario(), axes=tuple(axes))


@pytest.mark.parametrize(
    "axis, values, message",
    [
        ("frobnicate", (1,), "unknown axis"),
        ("placement", (), "at least one value"),
        ("placement", ("binpack", "binpack"), "duplicate values"),
        ("placement", ("teleport",), "unknown placement"),
        ("autoscaler", ("psychic",), "unknown policy"),
        ("nodes", (0,), "at least one node"),
        ("nodes", (("H900",),), "unknown GPU type"),
        ("nodes", ("V100",), "expected an int or GPU-type list"),
        ("fleet_size", (0,), ">= 1"),
        ("workload_scale", (0.0,), "must be positive"),
        ("headroom", (0.5,), ">= 1"),
        ("sharing", ("mps",), "unknown sharing mode"),
    ],
)
def test_axis_validation_errors(axis, values, message):
    with pytest.raises(SweepError, match=message):
        SweepAxis(axis=axis, values=tuple(values))


def test_sharing_axis_needs_a_static_base():
    """The autoscaler runs only ``fast``: a baseline mode over an autoscaled
    base fails when the sweep loads, not when its cells expand."""
    payload = Sweep(
        name="mechanisms",
        base=base_scenario(autoscaler=AutoscalerSpec(enabled=False)),
        axes=(SweepAxis(axis="sharing", values=("timeshare", "fast")),),
    ).to_dict()
    sweep = Sweep.from_dict(payload)
    assert [c.scenario.cluster.sharing for c in sweep.cells()] == ["timeshare", "fast"]
    del payload["base"]["autoscaler"]["enabled"]
    with pytest.raises(SweepError, match=r"axes\[sharing\]: .*sharing='fast'"):
        Sweep.from_dict(payload)


def test_json_round_trip(tmp_path):
    sweep = Sweep(
        name="rt",
        base=base_scenario(),
        axes=(
            SweepAxis(axis="nodes", values=(1, ("V100", "A100"))),
            SweepAxis(axis="autoscaler", values=("reactive", "hybrid")),
        ),
        reseed=True,
        cell_budget_s=30.0,
        description="round trip",
    )
    text = sweep.to_json()
    again = Sweep.from_json(text)
    assert again == sweep
    assert again.to_json() == text
    path = tmp_path / "sweep.json"
    sweep.save(str(path))
    assert load_sweep(str(path)) == sweep


def test_unknown_fields_rejected():
    payload = Sweep(
        name="rt",
        base=base_scenario(),
        axes=(SweepAxis(axis="placement", values=("binpack",)),),
    ).to_dict()
    payload["surprise"] = 1
    with pytest.raises(SweepError, match="unknown field"):
        Sweep.from_dict(payload)
    payload.pop("surprise")
    payload["axes"][0]["extra"] = True
    with pytest.raises(SweepError, match="unknown field"):
        Sweep.from_dict(payload)


def test_reseed_takes_only_a_boolean():
    payload = Sweep(
        name="rt",
        base=base_scenario(),
        axes=(SweepAxis(axis="placement", values=("binpack",)),),
    ).to_dict()
    payload["reseed"] = "false"
    with pytest.raises(SweepError, match="reseed: expected true/false"):
        Sweep.from_dict(payload)


def test_base_scenario_errors_carry_path():
    payload = Sweep(
        name="rt",
        base=base_scenario(),
        axes=(SweepAxis(axis="placement", values=("binpack",)),),
    ).to_dict()
    payload["base"]["functions"][0]["model"] = "gpt17"
    with pytest.raises(SweepError, match="base: .*gpt17"):
        Sweep.from_dict(payload)
