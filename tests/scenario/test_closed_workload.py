"""The ``closed`` workload kind and the ``node`` pin: k6-style virtual users
over static pods pinned to one GPU, measured through ``run_scenario``."""

from __future__ import annotations

import dataclasses

import pytest

from repro.__main__ import main
from repro.scenario import (
    AutoscalerSpec,
    ClusterSpec,
    MeasurementSpec,
    Scenario,
    ScenarioError,
    ScenarioFunction,
    WorkloadSpec,
    run_scenario,
)
from repro.serve import LiveServer, Replayer
from repro.sweep import Sweep, SweepAxis, SweepError


def closed(concurrency: int = 4, duration: float = 30.0) -> WorkloadSpec:
    return WorkloadSpec(kind="closed", concurrency=concurrency, duration=duration)


def pinned(nodes: int = 2, node: int = 1, workload: WorkloadSpec | None = None) -> Scenario:
    """Four 24% pods pinned to ``node`` of a static cluster, measured without drain."""
    return Scenario(
        name="pinned",
        seed=3,
        cluster=ClusterSpec(nodes=nodes),
        functions=(
            ScenarioFunction(
                name="vu-fn",
                model="resnet50",
                pods=((24.0, 1.0),) * 4,
                node=node,
                workload=workload or closed(duration=3.0),
            ),
        ),
        autoscaler=AutoscalerSpec(enabled=False),
        measurement=MeasurementSpec(drain_s=0.0),
    )


def test_closed_workload_round_trips_with_only_its_keys():
    workload = closed(8, 12.0)
    assert workload.to_dict() == {"kind": "closed", "concurrency": 8, "duration": 12.0}
    assert WorkloadSpec.from_dict(workload.to_dict()) == workload
    with pytest.raises(ScenarioError, match="unknown field"):
        WorkloadSpec.from_dict({"kind": "closed", "concurrency": 8, "duration": 1.0, "rps": 3.0})


@pytest.mark.parametrize("concurrency", [0, -2])
def test_concurrency_below_one_is_rejected(concurrency):
    with pytest.raises(ScenarioError, match="concurrency must be >= 1"):
        closed(concurrency)


def test_concurrency_belongs_to_the_closed_kind_only():
    with pytest.raises(ScenarioError, match="concurrency only applies to closed"):
        WorkloadSpec(kind="constant", rps=5.0, duration=4.0, concurrency=3)


def test_quick_caps_a_closed_duration_at_ten_seconds():
    quick = pinned(workload=closed(duration=45.0)).quick()
    assert quick.functions[0].workload == closed(duration=10.0)
    short = pinned(workload=closed(duration=6.0)).quick()
    assert short.functions[0].workload == closed(duration=6.0)


def test_workload_scale_rejects_a_closed_workload_by_name():
    axis = SweepAxis(axis="workload_scale", values=(2.0,))
    with pytest.raises(SweepError, match="'vu-fn' declares a closed-loop workload"):
        Sweep(name="scaled", base=pinned(), axes=(axis,))


def test_node_without_pods_is_rejected():
    with pytest.raises(ScenarioError, match="'solo': node pins pods"):
        ScenarioFunction(name="solo", model="resnet50", workload=closed(), node=0)


def test_node_must_be_inside_the_cluster():
    with pytest.raises(ScenarioError, match="node 2 is outside the 2-node cluster"):
        pinned(nodes=2, node=2)
    with pytest.raises(ScenarioError, match="node pins pods"):
        pinned(node=-1)


def test_a_nodes_axis_that_drops_a_pinned_node_fails_on_load():
    axis = SweepAxis(axis="nodes", values=(2, 1))
    with pytest.raises(SweepError, match=r"axes\[nodes\].*outside the 1-node cluster"):
        Sweep(name="shrink", base=pinned(nodes=2, node=1), axes=(axis,))


def test_serve_and_replay_refuse_a_closed_workload():
    scenario = pinned()
    for live in (LiveServer, Replayer):
        with pytest.raises(ScenarioError, match="'vu-fn': a closed-loop workload"):
            live(scenario)


@pytest.mark.parametrize("command", ["serve", "replay"])
def test_live_cli_refuses_a_closed_workload_before_binding(command, tmp_path, capsys, monkeypatch):
    import repro.serve

    def never(*args, **kwargs):
        raise AssertionError(f"{command} reached the network")

    monkeypatch.setattr(repro.serve, "serve_scenario", never)
    monkeypatch.setattr(repro.serve, "replay", never)
    path = tmp_path / "closed.json"
    pinned().save(str(path))
    assert main([command, str(path), "--port", "1"]) == 2
    assert "'vu-fn': a closed-loop workload" in capsys.readouterr().err


def test_pinned_pods_share_their_node_and_users_stop_at_the_horizon():
    report = run_scenario(pinned(workload=closed(concurrency=6, duration=3.0)))
    run = report.functions[0].run
    # All four pods on node1, 96% SMs: node0 stays idle.
    idle, busy = run.node_metrics
    assert (idle[0], idle[1], busy[0]) == ("node0", 0.0, "node1")
    assert busy[1] > 50.0
    # At most one request per virtual user is still in flight when the
    # window closes; none arrives after it.
    assert 0 < run.submitted - run.completed <= 6
    assert max(r.arrival for r in run.log.completed) < report.t0 + 3.0


def test_closed_users_submit_nothing_after_the_horizon():
    drained = dataclasses.replace(pinned(), measurement=MeasurementSpec(drain_s=5.0))
    report = run_scenario(drained)
    run = report.functions[0].run
    assert run.completed == run.submitted  # the drain finishes every request
    assert report.submitted == run_scenario(pinned()).submitted
