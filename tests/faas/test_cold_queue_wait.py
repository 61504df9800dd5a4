"""Cold-start vs replica-queue wait attribution (gateway + RunReport).

Requests that park in the gateway pending queue because *no* replica was
accepting record that time as ``cold_wait``; ordinary waiting behind other
requests on a live replica stays ``replica_queue_wait``.  The prewarm bench
uses this split to attribute wins, so the two must not be conflated.
"""

from __future__ import annotations

import pytest

from repro import FaSTGShare
from repro.faas.loadgen import OpenLoopGenerator
from repro.faas.workload import StepTrace
from repro.scenario import MeasurementSpec, Scenario, ScenarioFunction, WorkloadSpec, run_scenario


def build(seed=11):
    platform = FaSTGShare.build(nodes=1, sharing="fast", seed=seed)
    platform.register_function("fn", model="resnet50", model_sharing=True)
    return platform


def test_requests_during_cold_start_record_cold_wait():
    platform = build()
    # Deploy but do NOT wait for readiness: traffic races the cold start.
    platform.deploy("fn", configs=[(50, 1.0)])
    OpenLoopGenerator(
        platform.engine, platform.gateway, "fn", StepTrace([(4.0, 20)], poisson=False)
    )
    platform.engine.run(until=8.0)
    log = platform.gateway.log
    assert len(log.completed) > 0
    assert log.cold_hits() > 0
    early = [r for r in log.completed if r.cold_wait > 0]
    for request in early:
        # Attribution is a split of the total wait, never more than it.
        assert request.cold_wait <= request.queue_wait + 1e-9
        assert request.replica_queue_wait == pytest.approx(
            request.queue_wait - request.cold_wait
        )


def test_warm_replica_queueing_is_not_cold_wait():
    platform = build()
    platform.deploy("fn", configs=[(50, 1.0)])
    platform.wait_ready()
    # Saturate the single replica: deep replica queues, zero cold waits.
    OpenLoopGenerator(
        platform.engine, platform.gateway, "fn", StepTrace([(3.0, 120)], poisson=False)
    )
    platform.engine.run(until=platform.engine.now + 6.0)
    log = platform.gateway.log
    assert len(log.completed) > 0
    assert log.cold_hits() == 0
    assert log.cold_waits_ms().max() == 0.0
    assert log.queue_waits_ms().max() > 0.0  # real queueing happened


def test_run_report_separates_the_two_delays():
    # No initial pod: traffic races the autoscaler's first cold start.
    function = ScenarioFunction(
        name="fn",
        model="resnet50",
        initial_replicas=0,
        workload=WorkloadSpec(kind="constant", rps=100.0, duration=4.0),
    )
    scenario = Scenario(
        name="cold", seed=11, functions=(function,), measurement=MeasurementSpec(drain_s=0.0)
    )
    scenario_report = run_scenario(scenario)
    report = scenario_report.functions[0].run
    assert report.cold_hit_requests > 0
    assert report.cold_wait_ms_mean > 0.0
    assert report.queue_wait_ms_mean >= 0.0
    summary = scenario_report.summary()
    assert "cold-hits" in summary
    assert f"{report.cold_hit_requests:10d}" in summary.splitlines()[-1]


def test_rerouted_requests_accumulate_cold_wait():
    platform = build(seed=5)
    platform.deploy("fn", configs=[(50, 1.0)])
    platform.wait_ready()
    OpenLoopGenerator(
        platform.engine, platform.gateway, "fn", StepTrace([(2.0, 30)], poisson=False)
    )
    platform.engine.run(until=platform.engine.now + 0.5)
    # Kill the only replica mid-flight: queued requests reroute, park cold,
    # and are absorbed when the replacement becomes ready.
    (pod_id,) = list(platform.controllers["fn"].replicas)
    platform.scale_down("fn", pod_id, drain=False)
    platform.engine.run(until=platform.engine.now + 0.5)
    platform.deploy("fn", configs=[(50, 1.0)])
    platform.engine.run(until=platform.engine.now + 8.0)
    log = platform.gateway.log
    assert log.cold_hits() > 0
