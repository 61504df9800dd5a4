"""Dormant functions: skipped by the tick, exactly as if they were viewed."""

from __future__ import annotations

import math
import pathlib
import random

import pytest

from repro import FaSTGShare
from repro.autoscaler.controller import WAKE_EARLY_S, PredictiveAutoscaler
from repro.autoscaler.forecast import (
    FORECASTER_KINDS,
    CompositeForecaster,
    HybridHistogram,
    OracleForecaster,
    make_forecaster,
)
from repro.autoscaler.policy import FunctionView, PreWarmPolicy
from repro.faas.loadgen import OpenLoopGenerator
from repro.faas.traces import FunctionTrace
from repro.faas.workload import StepTrace
from repro.memtier.policy import MemTierPolicy
from repro.models import get_model
from repro.profiler import ProfileDatabase
from repro.scenario import AutoscalerSpec, load_scenario
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
        (MemTierPolicy(), dormant_view(swap_in_s=0.05)),
    ],
)
@pytest.mark.parametrize("now", [0.0, 30.0, 900.0])
def test_dormant_view_plans_nothing(policy, view, now):
    decision = policy.plan(now, [view])
    assert decision.actions == []
    assert decision.min_replicas == {}
    assert decision.idle == frozenset()


def test_wake_at_is_the_earliest_time_test_still_ahead():
    policy = PreWarmPolicy()  # lead = 0.3 s * 1.5 + 1 s; spare window 15 s
    view = dormant_view(idle_deadline=30.0, next_active=40.0, last_arrival=5.0)
    assert policy.wake_at(12.0, view) == 20.0  # the spare window closes first
    assert policy.wake_at(25.0, view) == 30.0  # then the keep-alive expiry
    assert policy.wake_at(35.0, view) == 40.0 - policy.lead_time(view)


def test_passed_boundaries_are_no_deadlines():
    """A time test that has already flipped stays flipped: no deadline."""
    policy = PreWarmPolicy()
    # Past the expiry and the spare window, nothing predicted: never.
    assert policy.wake_at(50.0, dormant_view(idle_deadline=30.0, last_arrival=5.0)) == math.inf
    # The predicted activity is already within the lead: only the spare
    # window remains ahead.
    view = dormant_view(idle_deadline=60.0, next_active=40.0, last_arrival=30.0)
    assert policy.wake_at(39.5, view) == 45.0
    # The histogram's next change is the next gap strictly above the idle
    # time: gaps 2, 5 and 9 s, last active bin ending at 17 s.
    histogram = HybridHistogram(bin_s=1.0)
    for index in (0, 2, 7, 16):
        histogram.observe(index, 1)
    assert histogram.quiet_until(21.0) == 22.0
    assert histogram.quiet_until(22.0) == 26.0  # the 5 s gap is behind
    assert histogram.quiet_until(26.0) == math.inf  # idle beyond every gap


def test_memtier_plans_reading_fabric_contention_promise_nothing():
    policy = MemTierPolicy()
    # A swap-length lead ahead of predicted activity.
    view = dormant_view(parked=1, parked_pod_ids=("p",), swap_in_s=0.05, next_active=90.0)
    assert policy.wake_at(30.0, view) <= 30.0
    # An idle warm reserve whose demotion waits on a hideable swap-in.
    view = dormant_view(warm=1, warm_pod_ids=("w",), swap_in_s=5.0, last_arrival=1.0)
    assert policy.wake_at(30.0, view) <= 30.0
    # Without the memory tier the same idle reserve sleeps for good.
    view = dormant_view(warm=1, warm_pod_ids=("w",), last_arrival=1.0)
    assert PreWarmPolicy().wake_at(30.0, view) == math.inf


# -- the dormancy test on a live control plane ---------------------------------------
def settings(policy):
    """1 s ticks and the scheduler settings these tests were written against."""
    return AutoscalerSpec(policy=policy, interval=1.0, headroom=1.10, scale_down_cooldown=6.0)


def build(policy="hybrid", forecasters=None):
    platform = FaSTGShare.build(nodes=1, sharing="fast", seed=5)
    for name in ("busy", "idle"):
        platform.register_function(name, model="resnet50", min_replicas=0)
    db = ProfileDatabase.analytic({n: get_model("resnet50") for n in ("busy", "idle")})
    scheduler = platform.start_autoscaler(db, settings(policy), forecasters=forecasters)
    return platform, scheduler


def test_dormancy_ends_at_first_arrival():
    platform, scheduler = build()
    autoscaler = scheduler.predictive
    assert autoscaler.dormant("busy") and autoscaler.dormant("idle")
    OpenLoopGenerator(
        platform.engine, platform.gateway, "busy", StepTrace([(3.0, 10)], poisson=False)
    )
    platform.engine.run(until=0.5)
    assert not autoscaler.dormant("busy")
    assert autoscaler.dormant("idle")


def test_function_with_replicas_is_not_dormant():
    platform, scheduler = build()
    p_eff = scheduler.scaler.p_eff("idle")
    scheduler.place_pod(
        platform.controllers["idle"], [(p_eff.sm_partition, p_eff.quota)], warm=True
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
    OpenLoopGenerator(
        platform.engine, platform.gateway, "busy", StepTrace([(3.0, 10)], poisson=False)
    )
    platform.engine.run(until=6.5)
    assert set(viewed) == {"busy"}
    assert set(scheduler.running) == {"busy"}  # no snapshot, no gap for "idle"


# -- sleeping after activity, and what wakes a sleeper ----------------------------------
def asleep_after_burst(host_keepalive_s: float = 300.0):
    """One memtier function that served a 3 s burst, parked its idle reserve
    in host RAM (evicted again past ``host_keepalive_s``) and fell asleep;
    returns (platform, scheduler, views) with ``views`` recording every tick
    time the function is viewed from 25.5 s on."""
    platform = FaSTGShare.build(nodes=1, sharing="fast", seed=5, host_memory_mb=65536.0)
    platform.register_function("fn", model="resnet50", min_replicas=0)
    db = ProfileDatabase.analytic({"fn": get_model("resnet50")})
    scheduler = platform.start_autoscaler(
        db, settings("memtier"), prewarm=MemTierPolicy(host_keepalive_s=host_keepalive_s)
    )
    autoscaler = scheduler.predictive
    OpenLoopGenerator(
        platform.engine, platform.gateway, "fn", StepTrace([(3.0, 10)], poisson=False)
    )
    platform.engine.run(until=25.5)
    assert autoscaler.dormant("fn") and not platform.controllers["fn"].replicas
    views = []
    view = autoscaler._view
    autoscaler._view = lambda now, name: views.append(now) or view(now, name)
    platform.engine.run(until=30.5)
    assert views == [] and "fn" not in scheduler.running
    return platform, scheduler, views


@pytest.mark.parametrize("host_keepalive_s", [300.0, 10.0])
def test_request_submit_wakes_a_sleeper(host_keepalive_s):
    platform, scheduler, views = asleep_after_burst(host_keepalive_s)
    # 300 s: the host copy is parked, so the arrival also swaps it in;
    # 10 s: it was evicted, and only the arrival itself can wake the function.
    assert bool(platform.controllers["fn"].parked) == (host_keepalive_s > 25.5)
    platform.gateway.submit("fn")
    assert not scheduler.predictive.dormant("fn")
    platform.engine.run(until=31.5)
    assert views == [31.0]


def test_externally_deployed_replica_wakes_a_sleeper():
    platform, scheduler, views = asleep_after_burst(host_keepalive_s=10.0)
    p_eff = scheduler.scaler.p_eff("fn")
    platform.deploy("fn", [(p_eff.sm_partition, p_eff.quota)])
    assert not scheduler.predictive.dormant("fn")
    platform.engine.run(until=31.5)
    assert views == [31.0]


def test_host_keepalive_deadline_wakes_a_sleeper():
    platform, scheduler, views = asleep_after_burst(host_keepalive_s=40.0)
    deadline = platform.gateway.last_arrival["fn"] + 40.0
    platform.engine.run(until=deadline + 1.0)
    # Viewed on the first tick past the deadline, which evicts the host copy.
    assert views == [math.ceil(deadline)]
    assert platform.lifecycle.evictions == 1
    assert not platform.controllers["fn"].parked
    # One more view finds nothing to do: asleep again, now with no deadline.
    platform.engine.run(until=deadline + 30.0)
    assert views == [math.ceil(deadline), math.ceil(deadline) + 1.0]
    assert scheduler.predictive.dormant("fn")


def test_steady_sleeper_holds_pods_and_a_warm_promotion_wakes_it():
    """After a burst, a function at its floor's one serving pod with a warm
    spare sleeps until its spare window closes; promoting the spare (here
    by hand, as migration or backpressure would) wakes it at once."""
    platform = FaSTGShare.build(nodes=1, sharing="fast", seed=5)
    platform.register_function("fn", model="resnet50", min_replicas=1)
    db = ProfileDatabase.analytic({"fn": get_model("resnet50")})
    scheduler = platform.start_autoscaler(db, settings("hybrid"))
    p_eff = scheduler.scaler.p_eff("fn")
    platform.deploy("fn", [(p_eff.sm_partition, p_eff.quota)])
    OpenLoopGenerator(
        platform.engine, platform.gateway, "fn", StepTrace([(3.0, 10)], poisson=False)
    )
    platform.engine.run(until=4.5)
    autoscaler, controller = scheduler.predictive, platform.controllers["fn"]
    assert autoscaler.dormant("fn")
    assert (controller.serving_count, controller.warm_count) == (1, 1)
    spare_end = platform.gateway.last_arrival["fn"] + PreWarmPolicy().spare_keepalive_s
    assert autoscaler._asleep["fn"][-1] == spare_end - WAKE_EARLY_S
    platform.engine.run(until=10.5)
    assert autoscaler.dormant("fn")
    platform.gateway.claim_warm("fn")
    assert not autoscaler.dormant("fn")
    platform.engine.run(until=11.5)
    assert "fn" in scheduler.running  # the next tick woke and gap-checked it


def test_one_forecast_rate_query_per_view(monkeypatch):
    """Each view asks its composite forecaster once, for all four answers,
    and the scheduler's gap reuses the rate that view read."""
    calls = []
    forecast = CompositeForecaster.forecast
    monkeypatch.setattr(
        CompositeForecaster,
        "forecast",
        lambda self, now: calls.append(now) or forecast(self, now),
    )
    for name in ("predict_rps", "next_active_time", "idle_deadline"):
        monkeypatch.setattr(
            CompositeForecaster, name, lambda self, now, _name=name: pytest.fail(_name)
        )
    views = []
    view = PredictiveAutoscaler._view
    monkeypatch.setattr(
        PredictiveAutoscaler,
        "_view",
        lambda self, now, name: views.append(name) or view(self, now, name),
    )
    run_scenario(load_scenario(str(SCENARIOS / "longtail_swap.json")), quick=True)
    assert views and len(calls) == len(views)


def test_forecaster_quietness_flags():
    for kind in FORECASTER_KINDS:
        assert make_forecaster(kind, period_s=20.0).quiet_until_observed
    oracle = OracleForecaster(FunctionTrace("f", "resnet50", (1,), 1.0))
    composite = CompositeForecaster([*make_forecaster("hybrid").parts, oracle])
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
    promote) adds or removes a serving pod, or changes the other inputs the
    gap reads besides this tick's plan: the gateway's load signal and its
    promotion set."""
    on_tick = PredictiveAutoscaler.on_tick
    checked = []

    def signals(autoscaler):
        gateway = autoscaler.gateway
        return {
            name: (gateway.predicted_rps(name), name in gateway.promoted)
            for name in autoscaler.scheduler.running
        }

    def guarded(autoscaler):
        before = {n: c.serving_configs() for n, c in autoscaler.controllers.items()}
        signals_before = signals(autoscaler)
        on_tick(autoscaler)
        after = {n: c.serving_configs() for n, c in autoscaler.controllers.items()}
        assert after == before
        assert signals(autoscaler) == signals_before
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
