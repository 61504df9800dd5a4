"""Integration tests: predictive controller, WARM_IDLE lifecycle, promotion."""

from __future__ import annotations

import dataclasses

import pytest

from repro import FaSTGShare
from repro.autoscaler.controller import build_autoscaler
from repro.autoscaler.forecast import OracleForecaster
from repro.faas.loadgen import OpenLoopGenerator
from repro.faas.traces import FunctionTrace
from repro.faas.workload import StepTrace
from repro.k8s.objects import PodPhase
from repro.models import get_model
from repro.profiler import ProfileDatabase
from repro.scenario import AutoscalerSpec

#: The scheduler settings these tests were written against.
SETTINGS = AutoscalerSpec(interval=2.0, headroom=1.10, scale_down_cooldown=6.0)


def build(policy="hybrid", nodes=2, seed=9, min_replicas=0):
    platform = FaSTGShare.build(nodes=nodes, sharing="fast", seed=seed)
    platform.register_function(
        "fn", model="resnet50", model_sharing=True, min_replicas=min_replicas
    )
    db = ProfileDatabase.analytic({"fn": get_model("resnet50")})
    scheduler = platform.start_autoscaler(
        db, dataclasses.replace(SETTINGS, interval=1.0, policy=policy)
    )
    return platform, scheduler


def prewarm_one(platform, scheduler):
    controller = platform.controllers["fn"]
    p_eff = scheduler.scaler.p_eff("fn")
    return scheduler.place_pod(controller, [(p_eff.sm_partition, p_eff.quota)], warm=True)


# -- WARM_IDLE lifecycle -----------------------------------------------------------
def test_warm_pod_parks_after_cold_start():
    platform, scheduler = build()
    replica = prewarm_one(platform, scheduler)
    platform.engine.run(until=4.0)
    assert replica.pod.phase is PodPhase.WARM_IDLE
    assert replica.warm_idle and not replica.ready
    assert platform.gateway.warm_replicas("fn") == [replica]
    # Not serving capacity: the controller reports it as warm, not serving.
    assert platform.controllers["fn"].warm_count == 1
    assert platform.controllers["fn"].serving_count == 0


def test_pending_request_promotes_warm_pod_without_cold_wait():
    platform, scheduler = build()
    replica = prewarm_one(platform, scheduler)
    platform.engine.run(until=4.0)
    OpenLoopGenerator(
        platform.engine, platform.gateway, "fn", StepTrace([(3.0, 10)], poisson=False)
    )
    platform.engine.run(until=8.0)
    assert replica.pod.phase is PodPhase.RUNNING
    assert platform.gateway.promotions >= 1
    log = platform.gateway.log
    assert len(log.completed) > 0
    assert log.cold_hits() == 0  # promotion hid the cold start entirely


def test_warm_pod_retire_roundtrip():
    platform, scheduler = build()
    replica = prewarm_one(platform, scheduler)
    platform.engine.run(until=4.0)
    pod_id = replica.pod.pod_id
    platform.controllers["fn"].scale_down(pod_id, drain=True)
    scheduler.placement.unbind(pod_id)
    platform.engine.run(until=5.0)
    assert replica.pod.phase is PodPhase.TERMINATED
    assert platform.gateway.warm_replicas("fn") == []
    assert platform.controllers["fn"].replica_count == 0


def test_scheduler_scale_up_promotes_before_placing():
    platform, scheduler = build()
    prewarm_one(platform, scheduler)
    platform.engine.run(until=4.0)
    OpenLoopGenerator(
        platform.engine, platform.gateway, "fn", StepTrace([(6.0, 30)], poisson=False)
    )
    platform.engine.run(until=10.0)
    promotes = [e for e in scheduler.events if e.action == "promote"]
    gateway_promotions = platform.gateway.promotions
    assert promotes or gateway_promotions >= 1  # the warm pod was consumed
    # (the policy may re-warm a fresh spare afterwards; consumption is what
    # matters — the original pod is serving, not parked)


# -- scale-to-zero + re-warm round trip ---------------------------------------------
def test_scale_to_zero_and_rewarm_roundtrip():
    platform, scheduler = build()
    p_eff = scheduler.scaler.p_eff("fn")
    platform.deploy("fn", configs=[(p_eff.sm_partition, p_eff.quota)])
    platform.wait_ready()
    OpenLoopGenerator(
        platform.engine, platform.gateway, "fn", StepTrace([(5.0, 20)], poisson=False)
    )
    platform.engine.run(until=60.0)
    controller = platform.controllers["fn"]
    # Keep-alive expired: no serving pods draw quota (idle reserve may park).
    assert controller.serving_count == 0
    # Traffic returns: the function comes back and completes every request.
    submitted_before = platform.gateway.submitted["fn"]
    OpenLoopGenerator(
        platform.engine, platform.gateway, "fn", StepTrace([(5.0, 20)], poisson=False)
    )
    platform.engine.run(until=90.0)
    new = platform.gateway.submitted["fn"] - submitted_before
    done = len([r for r in platform.gateway.log.completed if r.arrival >= 60.0])
    assert new > 0 and done == new


# -- controller wiring --------------------------------------------------------------
def test_reactive_degenerate_has_no_forecasters_and_passes_through():
    platform, scheduler = build(policy="reactive", min_replicas=1)
    predictive = scheduler.predictive
    assert not predictive.predictive
    OpenLoopGenerator(
        platform.engine, platform.gateway, "fn", StepTrace([(3.0, 10)], poisson=False)
    )
    platform.engine.run(until=2.5)
    assert predictive.predicted_rps("fn") == platform.gateway.predicted_rps("fn")
    assert predictive.prewarms == 0


def test_scheduler_builds_degenerate_controller_by_default():
    platform = FaSTGShare.build(nodes=1, sharing="fast", seed=3)
    platform.register_function("fn", model="resnet50")
    db = ProfileDatabase.analytic({"fn": get_model("resnet50")})
    from repro.scheduler.scheduler import FaSTScheduler

    scheduler = FaSTScheduler(
        platform.engine, platform.cluster, platform.gateway, db, platform.controllers,
        platform.placement, SETTINGS,
    )
    assert scheduler.predictive is not None
    assert scheduler.predictive.scheduler is scheduler
    assert not scheduler.predictive.predictive


def test_build_autoscaler_rejects_unknown_policy():
    platform, _ = build(policy="reactive")
    with pytest.raises(ValueError):
        build_autoscaler("magic", platform.controllers)


def test_build_autoscaler_oracle_requires_forecasters():
    platform, _ = build(policy="reactive")
    with pytest.raises(ValueError):
        build_autoscaler("oracle", platform.controllers)


def test_oracle_forecasters_accepted():
    trace = FunctionTrace(function="fn", model="resnet50", counts=(5, 0, 5), bin_s=10.0)
    platform = FaSTGShare.build(nodes=1, sharing="fast", seed=3)
    platform.register_function("fn", model="resnet50")
    db = ProfileDatabase.analytic({"fn": get_model("resnet50")})
    scheduler = platform.start_autoscaler(
        db,
        dataclasses.replace(SETTINGS, policy="oracle"),
        forecasters={"fn": OracleForecaster(trace)},
    )
    assert scheduler.predictive.predictive
