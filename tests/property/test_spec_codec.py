"""Spec codec properties: every valid spec round-trips, and JSON is a fixed point.

Specs are generated from the spec classes' own field types (the same
annotations the codec decodes by), narrowed only where ``__post_init__``
allows fewer values than the type.  A workload sets only the keys of its
kind, and ``gpu`` comes only with an integer ``nodes``: a node list ignores
``gpu`` and never writes it.  Every committed spec must also re-serialize
to its own bytes.
"""

from __future__ import annotations

import dataclasses
import pathlib
import types
import typing as _t

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.autoscaler.controller import POLICIES
from repro.faas.traces import TRACE_SHAPES
from repro.gpu.specs import GPU_CATALOG
from repro.models import MODEL_ZOO
from repro.scenario import (
    SHARING_MODES,
    WORKLOAD_KINDS,
    AutoscalerSpec,
    ClusterSpec,
    DefragSpec,
    Scenario,
    ScenarioError,
    ScenarioFunction,
    WorkloadSpec,
    load_scenario,
)
from repro.scenario.codec import Spec
from repro.scenario.spec import _KIND_KEYS
from repro.scheduler.mra import PLACEMENT_POLICIES
from repro.sweep import ASSERT_METRICS, Sweep, SweepAssertion, SweepAxis, SweepError, load_sweep

ROOT = pathlib.Path(__file__).resolve().parents[2]
GPUS = sorted(GPU_CATALOG)
GPU_LISTS = st.lists(st.sampled_from(GPUS), min_size=1, max_size=3).map(tuple)


def floats(low: float = 0.001, high: float = 1e4) -> st.SearchStrategy[float]:
    return st.floats(min_value=low, max_value=high, allow_nan=False, allow_infinity=False)


#: Fields whose valid values are narrower than their type's.
FIELD_VALUES: dict[tuple[type, str], st.SearchStrategy] = {
    (WorkloadSpec, "shape"): st.sampled_from(TRACE_SHAPES),
    (WorkloadSpec, "bins"): st.integers(1, 200),
    (ScenarioFunction, "model"): st.sampled_from(sorted(MODEL_ZOO)),
    (ScenarioFunction, "pods"): st.lists(
        st.tuples(floats(high=100.0), floats(high=1.0)), min_size=1, max_size=3
    ).map(tuple),
    (ClusterSpec, "gpu"): st.sampled_from(GPUS),
    (ClusterSpec, "sharing"): st.sampled_from(SHARING_MODES),
    (AutoscalerSpec, "policy"): st.sampled_from(tuple(POLICIES)),
    (AutoscalerSpec, "placement"): st.sampled_from(PLACEMENT_POLICIES),
    (AutoscalerSpec, "headroom"): floats(1.0, 4.0),
    (DefragSpec, "threshold"): floats(0.01, 0.99),
    (DefragSpec, "max_moves_per_tick"): st.integers(1, 8),
}


def from_type(tp: _t.Any) -> st.SearchStrategy:
    """Valid JSON-decodable values of one annotation (numbers positive)."""
    origin, args = _t.get_origin(tp), _t.get_args(tp)
    if tp is bool:
        return st.booleans()
    if tp is int:
        return st.integers(0, 1000)
    if tp is float:
        return floats()
    if tp is str:
        return st.text(min_size=1, max_size=8)
    if tp is type(None):
        return st.none()
    if origin is _t.Annotated:
        return from_type(args[0])
    if origin is types.UnionType:
        return st.one_of(*(from_type(arm) for arm in args))
    if origin is tuple:
        if args[1:] == (Ellipsis,):
            return st.lists(from_type(args[0]), min_size=1, max_size=4).map(tuple)
        return st.tuples(*(from_type(arm) for arm in args))
    return SPECS[tp] if tp in SPECS else st.deferred(lambda: spec_of(tp))


def _build(cls: type, kwargs: dict) -> _t.Any:
    try:
        return cls(**kwargs)
    except (ScenarioError, SweepError):  # a cross-field check rejected it
        return None


def spec_of(cls: type, names: _t.Iterable[str] | None = None, **fixed) -> st.SearchStrategy:
    """Instances of ``cls`` with ``names`` (default: every field) drawn from
    their types; a field with a default keeps it about half the time."""
    hints = _t.get_type_hints(cls, include_extras=True)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    drawn = {}
    for name in fields if names is None else names:
        if name in fixed:
            values = fixed[name]
        elif (cls, name) in FIELD_VALUES:
            values = FIELD_VALUES[cls, name]
        else:
            values = from_type(hints[name])
        default = fields[name].default
        if default is not dataclasses.MISSING and name not in fixed:
            values = st.just(default) | values
        drawn[name] = values
    built = st.fixed_dictionaries(drawn).map(lambda kw: _build(cls, kw))
    return built.filter(lambda spec: spec is not None)


def workloads() -> st.SearchStrategy[WorkloadSpec]:
    def of_kind(kind: str) -> st.SearchStrategy[WorkloadSpec]:
        always, when_set = _KIND_KEYS[kind]
        return spec_of(WorkloadSpec, ("kind", *always, *when_set), kind=st.just(kind))

    return st.sampled_from(WORKLOAD_KINDS).flatmap(of_kind)


def clusters() -> st.SearchStrategy[ClusterSpec]:
    homogeneous = spec_of(ClusterSpec, nodes=st.integers(1, 8))
    return homogeneous | spec_of(ClusterSpec, nodes=GPU_LISTS, gpu=st.just("V100"))


def scenarios() -> st.SearchStrategy[Scenario]:
    function = from_type(ScenarioFunction)
    fleet = st.lists(function, min_size=1, max_size=4, unique_by=lambda f: f.name)
    return spec_of(Scenario, functions=fleet.map(tuple))


#: Spec classes that need more than an independent draw per field.
SPECS: dict[type, st.SearchStrategy] = {
    WorkloadSpec: st.deferred(workloads),
    ClusterSpec: st.deferred(clusters),
    Scenario: st.deferred(scenarios),
}

#: Sweep axes with the values each takes.
AXIS_VALUES = {
    "placement": st.sampled_from(PLACEMENT_POLICIES),
    "autoscaler": st.sampled_from(tuple(POLICIES)),
    "nodes": st.integers(1, 8) | GPU_LISTS,
    "fleet_size": st.integers(1, 4),
    "workload_scale": floats(0.1, 10.0),
    "headroom": floats(1.0, 4.0),
    "fabric_gbps": floats(),
    "host_memory": st.none() | floats(),
    "defrag": st.none() | floats(0.01, 0.99),
    "sharing": st.sampled_from(SHARING_MODES),
}


def sweep_axes(axis: str) -> st.SearchStrategy[SweepAxis]:
    values = st.lists(AXIS_VALUES[axis], min_size=1, max_size=3, unique=True)
    return st.builds(SweepAxis, axis=st.just(axis), values=values.map(tuple))


def _with_asserts(sweep: Sweep) -> st.SearchStrategy[Sweep]:
    keys = st.sampled_from(sweep.cell_keys())
    metrics = st.lists(st.sampled_from(ASSERT_METRICS), max_size=2).map(tuple)
    check = st.builds(
        SweepAssertion,
        cell=keys,
        vs=st.lists(keys, min_size=1, max_size=2).map(tuple),
        lt=metrics,
        le=metrics,
    ).filter(lambda c: c.lt or c.le)
    asserts = st.lists(check, max_size=2).map(tuple)
    return asserts.map(lambda a: dataclasses.replace(sweep, asserts=a))


AXES = st.sampled_from(sorted(AXIS_VALUES)).flatmap(sweep_axes)
GRIDS = st.lists(AXES, min_size=1, max_size=2, unique_by=lambda a: a.axis).map(tuple)
SWEEP_FIELDS = ("name", "base", "axes", "reseed", "cell_budget_s", "description")
SWEEPS = spec_of(Sweep, SWEEP_FIELDS, axes=GRIDS).flatmap(_with_asserts)


def assert_round_trips(spec: Spec) -> None:
    cls = type(spec)
    assert cls.from_dict(spec.to_dict()) == spec
    text = spec.to_json()
    assert cls.from_json(text).to_json() == text


@given(SPECS[Scenario])
@settings(max_examples=80, deadline=None)
def test_every_valid_scenario_round_trips(scenario):
    assert_round_trips(scenario)


@given(SWEEPS)
@settings(max_examples=60, deadline=None)
def test_every_valid_sweep_round_trips(sweep):
    assert_round_trips(sweep)


COMMITTED = sorted(
    path.relative_to(ROOT)
    for folder in ("scenarios", "sweeps", "benches")
    for path in (ROOT / "examples" / folder).glob("*.json")
)


@pytest.mark.parametrize("path", COMMITTED, ids=str)
def test_committed_spec_reserializes_to_its_own_bytes(path):
    full = ROOT / path
    if path.parts[1] == "scenarios":
        assert load_scenario(str(full)).to_json() == full.read_text()
    elif path.name == "swap.json":  # its base is a path to a committed scenario
        longtail = load_scenario(str(ROOT / "examples" / "scenarios" / "longtail_swap.json"))
        assert load_sweep(str(full)).base == longtail
    else:
        assert load_sweep(str(full)).to_json() == full.read_text()
