"""Unit tests for the FaSTScheduler control loop."""

from __future__ import annotations

import pytest

from repro import FaSTGShare
from repro.faas.loadgen import OpenLoopGenerator
from repro.faas.workload import ConstantRate
from repro.models import get_model
from repro.profiler import ProfileDatabase
from repro.scheduler.scheduler import FaSTScheduler


def build(seed=9, nodes=2):
    platform = FaSTGShare.build(nodes=nodes, sharing="fast", seed=seed)
    platform.register_function("fn", model="resnet50", model_sharing=True)
    db = ProfileDatabase.analytic({"fn": get_model("resnet50")})
    return platform, db


def test_validation():
    platform, db = build()
    with pytest.raises(ValueError):
        FaSTScheduler(platform.engine, platform.cluster, platform.gateway, db,
                      platform.controllers, platform.placement, interval=0)
    with pytest.raises(ValueError):
        FaSTScheduler(platform.engine, platform.cluster, platform.gateway, db,
                      platform.controllers, platform.placement, headroom=0.9)
    with pytest.raises(ValueError):
        FaSTScheduler(platform.engine, platform.cluster, platform.gateway, db,
                      platform.controllers, platform.placement, min_replicas=-1)


def test_double_start_rejected():
    platform, db = build()
    scheduler = platform.start_autoscaler(db)
    with pytest.raises(RuntimeError):
        scheduler.start()
    scheduler.stop()


def test_scales_up_from_zero_on_load():
    platform, db = build()
    platform.start_autoscaler(db, interval=1.0, min_replicas=0)
    OpenLoopGenerator(platform.engine, platform.gateway, "fn",
                      ConstantRate(rps=30, duration=10.0))
    platform.engine.run(until=10.0)
    assert platform.controllers["fn"].replica_count >= 1
    ups = [e for e in platform.scheduler.events if e.action == "up"]
    assert ups
    assert ups[0].node is not None


def test_min_replicas_floor_holds_without_load():
    platform, db = build()
    platform.start_autoscaler(db, interval=1.0, min_replicas=1)
    platform.deploy("fn", configs=[(12, 1.0)] * 3)
    platform.wait_ready()
    platform.engine.run(until=platform.engine.now + 30.0)
    # With zero traffic the scheduler shrinks to exactly min_replicas.
    assert platform.controllers["fn"].replica_count == 1


def test_scale_down_is_gradual():
    platform, db = build()
    scheduler = platform.start_autoscaler(db, interval=1.0, min_replicas=1,
                                          scale_down_cooldown=0.0)
    platform.deploy("fn", configs=[(12, 1.0)] * 4)
    platform.wait_ready()
    t0 = platform.engine.now
    platform.engine.run(until=t0 + 2.5)
    downs = [e for e in scheduler.events if e.action == "down"]
    # At most one scale-down per tick (2 full ticks elapsed).
    assert 1 <= len(downs) <= 3


def test_nofit_recorded_when_cluster_full():
    platform, db = build(nodes=1)
    scheduler = platform.start_autoscaler(db, interval=1.0)
    # Fill the GPU's rectangle space completely.
    platform.deploy("fn", configs=[(100, 1.0)])
    platform.wait_ready()
    OpenLoopGenerator(platform.engine, platform.gateway, "fn",
                      ConstantRate(rps=400, duration=6.0))
    platform.engine.run(until=platform.engine.now + 6.0)
    assert any(e.action == "nofit" for e in scheduler.events)
    # The hand-deployed pod sits in the scheduler's ledger: nothing fits.
    assert not any(e.action == "up" for e in scheduler.events)


@pytest.mark.parametrize("deploy_first", [False, True])
def test_manual_deploy_and_scheduler_share_one_ledger(deploy_first):
    platform, db = build(nodes=1)
    if deploy_first:
        platform.deploy("fn", configs=[(100, 1.0)])
    scheduler = platform.start_autoscaler(db, interval=1.0)
    if not deploy_first:
        platform.deploy("fn", configs=[(100, 1.0)])
    platform.wait_ready()
    OpenLoopGenerator(platform.engine, platform.gateway, "fn",
                      ConstantRate(rps=400, duration=6.0))
    end = platform.engine.now + 6.0
    while platform.engine.now < end:
        platform.engine.run(until=platform.engine.now + 0.25)
        committed = sum(
            r.pod.spec.sm_partition * r.pod.spec.quota_limit * 100.0
            for r in platform.controllers["fn"].replicas.values()
            if r.pod.node_name == "node0"
        )
        assert committed <= 100.0 * 100.0 + 1e-6
    actions = [e.action for e in scheduler.events]
    assert "nofit" in actions
    assert "up" not in actions[: actions.index("nofit")]
    assert scheduler.placement is platform.placement


def test_replica_series_recorded():
    platform, db = build()
    scheduler = platform.start_autoscaler(db, interval=1.0)
    platform.deploy("fn", configs=[(12, 1.0)])
    platform.engine.run(until=5.0)
    assert len(scheduler.replica_series) >= 4
    t, counts = scheduler.replica_series[-1]
    assert counts == {"fn": 1}


def test_throughput_of_falls_back_to_analytic():
    platform, db = build()
    scheduler = FaSTScheduler(platform.engine, platform.cluster, platform.gateway,
                              db, platform.controllers, platform.placement)
    # Config outside the profiled grid -> analytic model rate.
    value = scheduler._throughput_of("fn", 33.0, 0.77)
    model = get_model("resnet50")
    assert value == pytest.approx(model.expected_rate(33.0, 0.77))


def test_place_pod_respects_memory_probe():
    platform, db = build(nodes=2)
    scheduler = FaSTScheduler(platform.engine, platform.cluster, platform.gateway,
                              db, platform.controllers, platform.placement)
    controller = platform.controllers["fn"]
    # Exhaust node0's memory with ballast so placement must pick node1.
    platform.cluster.node(0).device.memory.allocate("ballast", 15500)
    replica = scheduler.place_pod(controller, 12, 1.0, 1.0)
    assert replica.pod.node_name == "node1"
