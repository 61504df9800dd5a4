"""Integration tests for the FaSTGShare platform facade."""

from __future__ import annotations

import pytest

from repro import FaSTGShare
from repro.faas.workload import StepTrace
from repro.models import get_model
from repro.profiler import ProfileDatabase
from repro.scenario import AutoscalerSpec
from repro.scheduler.mra import NoFitError


def test_build_and_register():
    platform = FaSTGShare.build(nodes=2, sharing="fast", seed=1)
    spec = platform.register_function("classify", model="resnet50")
    assert spec.slo_ms == 69.0  # model default
    assert "classify" in platform.registry
    with pytest.raises(ValueError):
        platform.register_function("classify", model="resnet50")


def test_deploy_fast_uses_mra_placement():
    platform = FaSTGShare.build(nodes=2, sharing="fast", seed=1)
    platform.register_function("classify", model="resnet50")
    replicas = platform.deploy("classify", configs=[(12, 0.4)] * 4)
    # MRA concentrates all four pods on one node.
    nodes = {r.pod.node_name for r in replicas}
    assert nodes == {"node0"}


def test_deploy_timeshare_packs_by_quota():
    platform = FaSTGShare.build(nodes=2, sharing="timeshare", seed=1)
    platform.register_function("classify", model="resnet50")
    replicas = platform.deploy("classify", configs=[(100, 0.6), (100, 0.6)])
    # 0.6 + 0.6 > 1.0: quota packing must use both nodes.
    assert {r.pod.node_name for r in replicas} == {"node0", "node1"}


def test_deploy_exclusive_one_pod_per_gpu():
    platform = FaSTGShare.build(nodes=2, sharing="exclusive", seed=1)
    platform.register_function("classify", model="resnet50")
    replicas = platform.deploy("classify", configs=[(100, 1.0), (100, 1.0)])
    assert {r.pod.node_name for r in replicas} == {"node0", "node1"}
    with pytest.raises(RuntimeError):
        platform.deploy("classify", configs=[(100, 1.0)])


def test_deploy_racing_piles_onto_node0():
    platform = FaSTGShare.build(nodes=2, sharing="racing", seed=1)
    platform.register_function("classify", model="resnet50")
    replicas = platform.deploy("classify", configs=[(100, 1.0)] * 4)
    assert {r.pod.node_name for r in replicas} == {"node0"}


def test_run_workload_reports_throughput():
    platform = FaSTGShare.build(nodes=1, sharing="fast", seed=3)
    platform.register_function("classify", model="resnet50")
    platform.deploy("classify", configs=[(24, 1.0)] * 2)
    report = platform.run_workload("classify", rps=60, duration=10.0)
    assert report.completed > 0
    assert report.throughput == pytest.approx(60, rel=0.12)
    assert report.p95_ms > 0
    assert "classify" in report.summary()


def test_run_workload_counts_only_its_own_window():
    """A second window on one platform reports its own arrivals, not the
    function's cumulative count."""
    platform = FaSTGShare.build(nodes=1, sharing="fast", seed=3)
    platform.register_function("classify", model="resnet50")
    platform.deploy("classify", configs=[(24, 1.0)] * 2)
    first = platform.run_workload("classify", rps=20, duration=5.0, poisson=False)
    second = platform.run_workload("classify", rps=20, duration=5.0, poisson=False)
    for report in (first, second):
        assert report.submitted == pytest.approx(100, abs=1)
        assert 0 < report.completed <= report.submitted


def test_run_closed_loop_saturates():
    platform = FaSTGShare.build(nodes=1, sharing="fast", seed=3)
    platform.register_function("classify", model="resnet50")
    platform.deploy("classify", configs=[(12, 1.0)] * 8)
    report = platform.run_closed_loop("classify", concurrency=16, duration=10.0)
    # §5.3: 8 pods x 12% SMs ≈ 296.8 req/s aggregate.
    assert report.throughput == pytest.approx(296.8, rel=0.10)


def test_node_metrics_populated_after_run():
    platform = FaSTGShare.build(nodes=1, sharing="fast", seed=3)
    platform.register_function("classify", model="resnet50")
    platform.deploy("classify", configs=[(24, 1.0)])
    report = platform.run_closed_loop("classify", concurrency=4, duration=5.0)
    (name, util, occ), = report.node_metrics
    assert util > 50.0
    assert occ > 0.5


def test_deploy_no_fit_raises():
    platform = FaSTGShare.build(nodes=1, sharing="fast", seed=1)
    platform.register_function("classify", model="resnet50")
    platform.deploy("classify", configs=[(60, 1.0)])
    with pytest.raises(NoFitError):
        platform.deploy("classify", configs=[(60, 1.0)])


def test_deploy_pinned_node_allows_oversubscription():
    platform = FaSTGShare.build(nodes=2, sharing="fast", seed=1)
    platform.register_function("classify", model="resnet50")
    replicas = platform.deploy("classify", configs=[(24, 1.0)] * 8, node=0)
    assert {r.pod.node_name for r in replicas} == {"node0"}


def test_scale_down_releases_capacity():
    # Each sharing mode releases the binding in the ledger that made it.
    for sharing in ("fast", "timeshare", "racing", "exclusive"):
        platform = FaSTGShare.build(nodes=1, sharing=sharing, seed=1)
        platform.register_function("classify", model="resnet50")
        replicas = platform.deploy("classify", configs=[(100, 1.0)])
        platform.wait_ready("classify")
        platform.scale_down("classify", replicas[0].pod.pod_id, drain=True)
        platform.engine.run(until=platform.engine.now + 1.0)
        # A pinned deploy may bind nothing; its scale-down must not raise.
        pinned = platform.deploy("classify", configs=[(10, 0.1)], node=0)
        platform.scale_down("classify", pinned[0].pod.pod_id, drain=False)
        platform.engine.run(until=platform.engine.now + 1.0)
        platform.deploy("classify", configs=[(100, 1.0)])  # space reclaimed


def test_exclusive_deploy_skips_a_gpu_taken_by_a_pinned_pod():
    platform = FaSTGShare.build(nodes=2, sharing="exclusive", seed=1)
    platform.register_function("classify", model="resnet50")
    platform.deploy("classify", configs=[(100, 1.0)], node=0)
    (replica,) = platform.deploy("classify", configs=[(100, 1.0)])
    assert replica.pod.node_name == "node1"
    with pytest.raises(NoFitError):
        platform.deploy("classify", configs=[(100, 1.0)])


def test_timeshare_deploy_counts_pinned_quota():
    platform = FaSTGShare.build(nodes=2, sharing="timeshare", seed=1)
    platform.register_function("classify", model="resnet50")
    platform.deploy("classify", configs=[(100, 0.8)], node=0)
    (replica,) = platform.deploy("classify", configs=[(100, 0.5)])
    assert replica.pod.node_name == "node1"
    assert [node.quota_in_use for node in platform.cluster.nodes] == [0.8, 0.5]


def test_exclusive_gpu_stays_taken_until_its_pod_drains():
    platform = FaSTGShare.build(nodes=2, sharing="exclusive", seed=1)
    platform.register_function("classify", model="resnet50")
    (first,) = platform.deploy("classify", configs=[(100, 1.0)])
    platform.wait_ready("classify")
    platform.scale_down("classify", first.pod.pod_id, drain=True)
    (second,) = platform.deploy("classify", configs=[(100, 1.0)])  # node0 still draining
    assert (first.pod.node_name, second.pod.node_name) == ("node0", "node1")
    platform.engine.run(until=platform.engine.now + 1.0)
    (third,) = platform.deploy("classify", configs=[(100, 1.0)])  # evicted: free again
    assert third.pod.node_name == "node0"


def test_fast_scale_down_of_a_pinned_pod_that_never_fit():
    platform = FaSTGShare.build(nodes=1, sharing="fast", seed=1)
    platform.register_function("classify", model="resnet50")
    bound, unbound = platform.deploy("classify", configs=[(100, 1.0)] * 2, node=0)
    assert platform.placement.node_of(unbound.pod.pod_id) is None
    assert platform.scale_down("classify", unbound.pod.pod_id, drain=False) is None
    assert platform.scale_down("classify", bound.pod.pod_id, drain=False) == "node0"
    platform.engine.run(until=platform.engine.now + 1.0)
    assert platform.controllers["classify"].replica_count == 0
    platform.deploy("classify", configs=[(100, 1.0)])  # the rectangle is free again


def test_autoscaler_end_to_end_meets_demand():
    platform = FaSTGShare.build(nodes=2, sharing="fast", seed=5)
    platform.register_function("classify", model="resnet50")
    db = ProfileDatabase.analytic({"classify": get_model("resnet50")})
    platform.start_autoscaler(
        db, AutoscalerSpec(interval=1.0, headroom=1.15, scale_down_cooldown=6.0)
    )
    # No replicas initially: the scheduler must scale from zero.
    trace = StepTrace([(20, 30), (20, 80), (20, 30)], poisson=False)
    report = platform.run_workload("classify", workload=trace, warm_start=False)
    assert report.completed == pytest.approx(report.submitted, rel=0.05)
    counts = [sum(c.values()) for _, c in platform.scheduler.replica_series]
    assert max(counts) >= 2           # scaled up under the 80 rps step
    assert counts[-1] < max(counts)   # scaled back down after the peak
    ups = [e for e in platform.scheduler.events if e.action == "up"]
    downs = [e for e in platform.scheduler.events if e.action == "down"]
    assert ups and downs


def test_same_seed_same_results():
    def run() -> tuple:
        platform = FaSTGShare.build(nodes=1, sharing="fast", seed=11)
        platform.register_function("classify", model="resnet50")
        platform.deploy("classify", configs=[(24, 0.6)] * 2)
        report = platform.run_workload("classify", rps=40, duration=8.0)
        return report.completed, report.p95_ms, report.node_metrics

    assert run() == run()


def test_gpu_type_scales_served_throughput():
    """The same pod config serves faster on an A100 than on a T4."""
    rates = {}
    for gpu in ("A100", "T4"):
        platform = FaSTGShare.build(nodes=[gpu], sharing="fast", seed=1)
        platform.register_function("classify", model="resnet50")
        platform.deploy("classify", configs=[(24, 1.0)])
        report = platform.run_closed_loop("classify", concurrency=4, duration=8.0)
        rates[gpu] = report.throughput
    assert rates["A100"] > 1.5 * rates["T4"]


def test_heterogeneous_build_accepts_node_list():
    platform = FaSTGShare.build(nodes=("V100", "T4"), sharing="fast", seed=1)
    assert platform.cluster_spec.nodes == ("V100", "T4")
    assert [n.spec.name for n in platform.cluster.nodes] == ["V100", "T4"]


def test_placement_policy_is_a_platform_setting():
    platform = FaSTGShare.build(nodes=2, sharing="fast", placement="spread")
    assert platform.placement.policy == "spread"
    with pytest.raises(ValueError, match="unknown placement policy"):
        FaSTGShare.build(nodes=2, sharing="fast", placement="best-effort")
