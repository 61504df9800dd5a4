"""The one table of autoscale policy names (repro.autoscaler.controller.POLICIES)."""

from __future__ import annotations

import pytest

from repro.autoscaler.controller import POLICIES, build_autoscaler
from repro.autoscaler.forecast import FORECASTER_KINDS


def test_builtins_are_registered():
    for kind in FORECASTER_KINDS:
        assert kind in POLICIES
    for name in ("reactive", "oracle", "warmidle", "memtier"):
        assert name in POLICIES
    assert build_autoscaler("reactive", ["fn"]) == (None, {})
    for name in POLICIES.keys() - {"reactive", "oracle"}:
        policy, forecasters = build_autoscaler(name, ["fn"], period_s=60.0)
        assert policy is not None and set(forecasters) == {"fn"}


def test_unknown_policy_error_lists_known_names():
    with pytest.raises(ValueError, match="unknown autoscale policy") as excinfo:
        build_autoscaler("no-such-policy", ["fn"])
    for name in POLICIES:
        assert repr(name) in str(excinfo.value)


def test_memtier_registration_builds_memtier_policy():
    from repro.memtier.policy import MemTierPolicy

    policy, _ = build_autoscaler("memtier", ["fn"])
    assert isinstance(policy, MemTierPolicy)


def test_scenario_validation_reads_registry():
    from repro.scenario import ScenarioError
    from repro.scenario.spec import AutoscalerSpec

    for name in POLICIES:
        assert AutoscalerSpec(policy=name).policy == name
    with pytest.raises(ScenarioError, match="unknown policy"):
        AutoscalerSpec(policy="no-such-policy")
