"""Dormant functions: skipped by the tick, exactly as if they were viewed."""

from __future__ import annotations

import pathlib
import random

import pytest

from repro import FaSTGShare
from repro.autoscaler.controller import PredictiveAutoscaler
from repro.autoscaler.forecast import (
    FORECASTER_KINDS,
    HybridHistogram,
    OracleForecaster,
    make_forecaster,
)
from repro.autoscaler.policy import FunctionView, PreWarmPolicy
from repro.faas.loadgen import OpenLoopGenerator
from repro.faas.traces import FunctionTrace
from repro.faas.workload import ConstantRate
from repro.memtier.policy import MemTierPolicy
from repro.models import get_model
from repro.profiler import ProfileDatabase
from repro.scenario import load_scenario
from repro.scenario.runner import run_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parents[2] / "examples" / "scenarios"


def dormant_view(**overrides) -> FunctionView:
    base = dict(
        function="fn",
        serving=0,
        warm=0,
        warm_pod_ids=(),
        capacity_rps=0.0,
        pod_rps=20.0,
        sm_partition=60.0,
        quota=0.8,
        cold_start_s=0.3,
        slo_ms=250.0,
        pending=0,
        predicted_rps=None,
        next_active=None,
        idle_deadline=None,
        active_rate=None,
        last_arrival=None,
    )
    base.update(overrides)
    return FunctionView(**base)


@pytest.mark.parametrize(
    "policy, view",
    [
        (PreWarmPolicy(), dormant_view()),
        (MemTierPolicy(), dormant_view(swap_in_s=0.05, weight_mb=100.0)),
    ],
)
@pytest.mark.parametrize("now", [0.0, 30.0, 900.0])
def test_dormant_view_plans_nothing(policy, view, now):
    decision = policy.plan(now, [view])
    assert decision.actions == []
    assert decision.min_replicas == {}
    assert decision.idle == frozenset()


# -- the dormancy test on a live control plane ---------------------------------------
def build(policy="hybrid", forecasters=None):
    platform = FaSTGShare.build(nodes=1, sharing="fast", seed=5)
    for name in ("busy", "idle"):
        platform.register_function(name, model="resnet50")
    db = ProfileDatabase.analytic({n: get_model("resnet50") for n in ("busy", "idle")})
    scheduler = platform.start_autoscaler(
        db, interval=1.0, min_replicas=0, policy=policy, forecasters=forecasters
    )
    return platform, scheduler


def test_dormancy_ends_at_first_arrival():
    platform, scheduler = build()
    autoscaler = scheduler.predictive
    assert autoscaler.dormant("busy") and autoscaler.dormant("idle")
    OpenLoopGenerator(platform.engine, platform.gateway, "busy", ConstantRate(10, 3.0))
    platform.engine.run(until=0.5)
    assert not autoscaler.dormant("busy")
    assert autoscaler.dormant("idle")


def test_function_with_replicas_is_not_dormant():
    platform, scheduler = build()
    p_eff = scheduler.scaler.p_eff("idle")
    scheduler.place_pod(
        platform.controllers["idle"], p_eff.sm_partition, p_eff.quota, p_eff.quota, warm=True
    )
    assert not scheduler.predictive.dormant("idle")


def test_function_with_host_resident_pod_is_not_dormant():
    platform, scheduler = build()
    controller = platform.controllers["idle"]
    controller.parked["fastpod-idle-1"] = None  # a HOST_RESIDENT entry, never invoked
    assert not controller.replicas
    assert not scheduler.predictive.dormant("idle")


def test_oracle_forecast_function_is_never_dormant():
    trace = FunctionTrace(function="idle", model="resnet50", counts=(0, 0, 5), bin_s=10.0)
    platform, scheduler = build(
        policy="oracle",
        forecasters={"busy": OracleForecaster(trace), "idle": OracleForecaster(trace)},
    )
    assert not scheduler.predictive.dormant("idle")
    assert not OracleForecaster.quiet_until_observed
    views = []
    view = scheduler.predictive._view
    scheduler.predictive._view = lambda now, name: views.append(name) or view(now, name)
    platform.engine.run(until=3.5)
    assert views.count("idle") == 3  # viewed every tick before any arrival


def test_tick_views_only_awake_functions():
    platform, scheduler = build()
    viewed = []
    view = scheduler.predictive._view
    scheduler.predictive._view = lambda now, name: viewed.append(name) or view(now, name)
    OpenLoopGenerator(platform.engine, platform.gateway, "busy", ConstantRate(10, 3.0))
    platform.engine.run(until=6.5)
    assert set(viewed) == {"busy"}
    assert set(scheduler.running) == {"busy"}  # no snapshot, no gap for "idle"


def test_forecaster_quietness_flags():
    for kind in FORECASTER_KINDS:
        assert make_forecaster(kind, period_s=20.0).quiet_until_observed
    composite = make_forecaster("hybrid")
    composite.parts.append(OracleForecaster(FunctionTrace("f", "resnet50", (1,), 1.0)))
    assert not composite.quiet_until_observed


# -- lazy catch-up equals eager ingest ----------------------------------------------
def arrival_bins(seed: int) -> dict[int, int]:
    """Quiet for 40 s, then clumps separated by irregular gaps."""
    rng = random.Random(seed)
    bins: dict[int, int] = {}
    start = 40
    while start < 200:
        for i in range(rng.randint(1, 6)):
            bins[start + i] = rng.randint(1, 9)
        start += rng.randint(3, 30)
    return bins


def answers(forecaster, now: float) -> tuple:
    return (
        forecaster.predict_rps(now),
        forecaster.next_active_time(now),
        forecaster.idle_deadline(now),
        forecaster.active_rate(),
    )


@pytest.mark.parametrize("kind", FORECASTER_KINDS)
@pytest.mark.parametrize("seed", [1, 2])
def test_lazy_catch_up_matches_eager_ingest(kind, seed):
    bins = arrival_bins(seed)
    first_arrival = min(bins)
    eager = make_forecaster(kind, period_s=20.0)
    lazy = make_forecaster(kind, period_s=20.0)
    compared = 0
    for tick in range(0, 240, 2):
        now = tick + 0.5
        eager.ingest(bins, tick)
        if now < first_arrival:
            continue  # dormant: neither ingested nor asked
        lazy.ingest(bins, tick)
        for probe in (now, now + 0.7, now + 5.0):
            assert answers(lazy, probe) == answers(eager, probe)
            compared += 1
    assert compared > 100


def test_histogram_keeps_gaps_sorted_and_conditional_set_unchanged():
    rng = random.Random(7)
    histogram = HybridHistogram(bin_s=1.0)
    index = 0
    for _ in range(200):
        index += rng.randint(1, 40)
        histogram.observe(index, rng.randint(1, 5))
    assert histogram.gaps == sorted(histogram.gaps)
    for elapsed in [0.0, 1.0, 2.5, 10.0, 39.0, 40.0, 100.0]:
        expected = sorted(g for g in histogram.gaps if g > elapsed)
        assert histogram._conditional_gaps(elapsed) == expected


# -- the per-tick capacity snapshot ---------------------------------------------------
@pytest.mark.parametrize("scenario", ["longtail_swap", "cold_bursty"])
def test_on_tick_actions_never_change_a_serving_set(monkeypatch, scenario):
    """The invariant behind sharing one capacity snapshot per tick: no
    built-in predictive action (prewarm, retire, demote, evict, policy-lead
    promote) adds or removes a serving pod."""
    on_tick = PredictiveAutoscaler.on_tick
    checked = []

    def guarded(autoscaler):
        before = {n: c.serving_configs() for n, c in autoscaler.controllers.items()}
        on_tick(autoscaler)
        after = {n: c.serving_configs() for n, c in autoscaler.controllers.items()}
        assert after == before
        scheduler = autoscaler.scheduler
        for name, capacity in scheduler.capacity.items():
            rates = [
                scheduler._throughput_of(name, sm, q, pod_id=pod_id)
                for pod_id, sm, _q_req, q in after[name]
            ]
            assert capacity == sum(rates)
        checked.append(len(scheduler.capacity))

    monkeypatch.setattr(PredictiveAutoscaler, "on_tick", guarded)
    run_scenario(load_scenario(str(SCENARIOS / f"{scenario}.json")), quick=True)
    assert checked and max(checked) > 0
