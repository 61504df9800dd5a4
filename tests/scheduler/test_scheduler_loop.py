"""Unit tests for the FaSTScheduler control loop."""

from __future__ import annotations

import pytest

from repro import FaSTGShare
from repro.autoscaler.forecast import make_forecaster
from repro.faas.loadgen import OpenLoopGenerator
from repro.faas.workload import StepTrace
from repro.models import get_model
from repro.profiler import ProfileDatabase
from repro.scenario import AutoscalerSpec, ScenarioError
from repro.scheduler.scheduler import FaSTScheduler


def settings(**kw):
    """The settings these tests were written against (2 s ticks, 1.10
    headroom, 6 s cooldown, 10% hysteresis), with ``kw`` on top."""
    return AutoscalerSpec(**{"interval": 2.0, "headroom": 1.10, "scale_down_cooldown": 6.0, **kw})


def build(seed=9, nodes=2, min_replicas=1):
    platform = FaSTGShare.build(nodes=nodes, sharing="fast", seed=seed)
    platform.register_function(
        "fn", model="resnet50", model_sharing=True, min_replicas=min_replicas
    )
    db = ProfileDatabase.analytic({"fn": get_model("resnet50")})
    return platform, db


def scheduler_for(platform, db, forecasters=None):
    return FaSTScheduler(
        platform.engine,
        platform.cluster,
        platform.gateway,
        db,
        platform.controllers,
        platform.placement,
        settings(),
        forecasters=forecasters,
    )


def test_validation():
    with pytest.raises(ScenarioError, match="interval"):
        settings(interval=0)
    with pytest.raises(ScenarioError, match="headroom"):
        settings(headroom=0.9)
    platform, _ = build()
    with pytest.raises(ValueError, match="min_replicas"):
        platform.register_function("other", model="resnet50", min_replicas=-1)


def test_forecasters_without_a_policy_rejected():
    # Nothing would read them: only a policy's views ask a forecaster.
    platform, db = build()
    with pytest.raises(ValueError):
        scheduler_for(platform, db, forecasters={"fn": make_forecaster("hybrid")})


def test_double_start_rejected():
    platform, db = build()
    scheduler = platform.start_autoscaler(db, settings())
    with pytest.raises(RuntimeError):
        scheduler.start()
    scheduler.stop()


def test_scales_up_from_zero_on_load():
    platform, db = build(min_replicas=0)
    platform.start_autoscaler(db, settings(interval=1.0))
    OpenLoopGenerator(
        platform.engine, platform.gateway, "fn", StepTrace([(10.0, 30)], poisson=False)
    )
    platform.engine.run(until=10.0)
    assert platform.controllers["fn"].replica_count >= 1
    ups = [e for e in platform.scheduler.events if e.action == "up"]
    assert ups
    assert ups[0].node is not None


def test_min_replicas_floor_holds_without_load():
    platform, db = build()
    platform.start_autoscaler(db, settings(interval=1.0))
    platform.deploy("fn", configs=[(12, 1.0)] * 3)
    platform.wait_ready()
    platform.engine.run(until=platform.engine.now + 30.0)
    # With zero traffic the scheduler shrinks to exactly min_replicas.
    assert platform.controllers["fn"].replica_count == 1


def test_scale_down_is_gradual():
    platform, db = build()
    scheduler = platform.start_autoscaler(db, settings(interval=1.0, scale_down_cooldown=0.0))
    platform.deploy("fn", configs=[(12, 1.0)] * 4)
    platform.wait_ready()
    t0 = platform.engine.now
    platform.engine.run(until=t0 + 2.5)
    downs = [e for e in scheduler.events if e.action == "down"]
    # At most one scale-down per tick (2 full ticks elapsed).
    assert 1 <= len(downs) <= 3


def test_nofit_recorded_when_cluster_full():
    platform, db = build(nodes=1)
    scheduler = platform.start_autoscaler(db, settings(interval=1.0))
    # Fill the GPU's rectangle space completely.
    platform.deploy("fn", configs=[(100, 1.0)])
    platform.wait_ready()
    OpenLoopGenerator(
        platform.engine, platform.gateway, "fn", StepTrace([(6.0, 400)], poisson=False)
    )
    platform.engine.run(until=platform.engine.now + 6.0)
    assert any(e.action == "nofit" for e in scheduler.events)
    # The hand-deployed pod sits in the scheduler's ledger: nothing fits.
    assert not any(e.action == "up" for e in scheduler.events)


@pytest.mark.parametrize("deploy_first", [False, True])
def test_manual_deploy_and_scheduler_share_one_ledger(deploy_first):
    platform, db = build(nodes=1)
    if deploy_first:
        platform.deploy("fn", configs=[(100, 1.0)])
    scheduler = platform.start_autoscaler(db, settings(interval=1.0))
    if not deploy_first:
        platform.deploy("fn", configs=[(100, 1.0)])
    platform.wait_ready()
    OpenLoopGenerator(
        platform.engine, platform.gateway, "fn", StepTrace([(6.0, 400)], poisson=False)
    )
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
    scheduler = platform.start_autoscaler(db, settings(interval=1.0))
    platform.deploy("fn", configs=[(12, 1.0)])
    platform.engine.run(until=5.0)
    assert len(scheduler.replica_series) >= 4
    t, counts = scheduler.replica_series[-1]
    assert counts == {"fn": 1}


def test_throughput_of_falls_back_to_analytic():
    platform, db = build()
    scheduler = scheduler_for(platform, db)
    # Config outside the profiled grid -> analytic model rate.
    value = scheduler._throughput_of("fn", 33.0, 0.77)
    model = get_model("resnet50")
    assert value == pytest.approx(model.expected_rate(33.0, 0.77))


def test_place_pod_respects_memory_probe():
    platform, db = build(nodes=2)
    scheduler = scheduler_for(platform, db)
    controller = platform.controllers["fn"]
    # Exhaust node0's memory with ballast so placement must pick node1.
    platform.cluster.node(0).device.memory.allocate("ballast", 15500)
    replica = scheduler.place_pod(controller, [(12, 1.0)])
    assert replica.pod.node_name == "node1"


# -- gateway promotions arm the scale-down cooldown ----------------------------------
def promoted_between_ticks(trigger):
    """One function at floor 1 (backpressure) or 0 (demand swap), whose
    gateway promotes a pod at t = 10.2, between the ticks at 10 and 11;
    returns (platform, scheduler).  The cooldown is 3.5 s."""
    platform = FaSTGShare.build(nodes=1, sharing="fast", seed=9, host_memory_mb=65536.0)
    floor = 1 if trigger == "backpressure" else 0
    platform.register_function("fn", model="resnet50", model_sharing=True, min_replicas=floor)
    db = ProfileDatabase.analytic({"fn": get_model("resnet50")})
    scheduler = platform.start_autoscaler(db, settings(interval=1.0, scale_down_cooldown=3.5))
    controller = platform.controllers["fn"]
    p_eff = scheduler.scaler.p_eff("fn")
    config = [(p_eff.sm_partition, p_eff.quota)]
    if trigger == "backpressure":
        scheduler.place_pod(controller, config)
    warm = scheduler.place_pod(controller, config, warm=True)
    platform.engine.run(until=5.0)
    if trigger == "demand-swap":
        platform.lifecycle.demote("fn", warm.pod.pod_id)
    platform.engine.run(until=10.2)
    assert not platform.gateway.promoted
    if trigger == "backpressure":
        # The serving pod's queue reaches the threshold: a warm spare joins.
        for _ in range(5):
            platform.gateway.submit("fn")
        assert platform.gateway.promotions == 1
    else:
        # Nothing accepts: the parked request swaps the host copy in.
        assert platform.lifecycle.parked("fn")
        platform.gateway.submit("fn")
        assert platform.gateway.swap_promotions == 1
    assert platform.gateway.promoted == {"fn"}
    return platform, scheduler


@pytest.mark.parametrize("trigger", ["backpressure", "demand-swap"])
def test_gateway_promotion_blocks_scale_down_from_the_next_tick(trigger):
    platform, scheduler = promoted_between_ticks(trigger)
    platform.engine.run(until=11.5)
    assert not platform.gateway.promoted  # the tick at 11 took it out...
    assert scheduler._last_scale_up["fn"] == 11.0  # ...and armed the cooldown
    platform.engine.run(until=20.5)
    # The surplus pod drains on the first tick 3.5 s past 11, not past 10.2.
    downs = [e.time for e in scheduler.events if e.action == "down"]
    assert downs and downs[0] == 15.0


def test_scheduler_warm_claim_rearms_the_cooldown_at_the_next_tick():
    platform, db = build(nodes=1)
    scheduler = platform.start_autoscaler(db, settings(interval=1.0, scale_down_cooldown=2.5))
    platform.gateway.promote_load_threshold = 10**6  # no backpressure claims
    controller = platform.controllers["fn"]
    p_eff = scheduler.scaler.p_eff("fn")
    config = [(p_eff.sm_partition, p_eff.quota)]
    scheduler.place_pod(controller, config)
    scheduler.place_pod(controller, config, warm=True)
    platform.engine.run(until=10.2)
    load = StepTrace([(1.0, 1.5 * p_eff.throughput)], poisson=False)
    OpenLoopGenerator(platform.engine, platform.gateway, "fn", load)
    platform.engine.run(until=11.5)
    # The tick at 11 scaled up by claiming the warm pod through the gateway.
    assert [(e.time, e.action) for e in scheduler.events] == [(11.0, "promote")]
    assert platform.gateway.promoted == {"fn"}
    platform.engine.run(until=12.5)
    assert scheduler._last_scale_up["fn"] == 12.0  # re-armed by the tick at 12
    platform.engine.run(until=20.5)
    downs = [e.time for e in scheduler.events if e.action == "down"]
    assert downs and downs[0] == 15.0  # 2.5 s past 12, not past 11
