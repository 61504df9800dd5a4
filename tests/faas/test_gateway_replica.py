"""Integration tests: gateway routing + replica serving on a real node."""

from __future__ import annotations

import pytest

from repro.faas import FunctionRegistry, FunctionSpec, Gateway
from repro.faas.loadgen import ClosedLoopClient, OpenLoopGenerator
from repro.faas.workload import StepTrace
from repro.k8s import Cluster
from repro.k8s.fastpod import FaSTPodController
from repro.sim import Engine


@pytest.fixture
def stack(engine: Engine):
    cluster = Cluster(engine, nodes=1, gpu="V100", sharing_mode="fast")
    registry = FunctionRegistry()
    spec = FunctionSpec.from_model("classify", "resnet50")
    registry.register(spec)
    gateway = Gateway(engine, registry)
    controller = FaSTPodController(engine, cluster, gateway, spec)
    return engine, cluster, gateway, controller, spec


def test_cold_start_then_serving(stack):
    engine, cluster, gateway, controller, spec = stack
    replica = controller.scale_up(cluster.node(0), 24, 1.0, 1.0)
    assert not replica.ready
    gateway.submit("classify")  # parks in the pending queue
    assert gateway.pending_total == 1
    engine.run(until=spec.model.load_time_s + 1.0)
    assert replica.ready
    assert gateway.pending_total == 0
    assert len(gateway.log) == 1
    request = gateway.log.completed[0]
    # The parked request waited out the cold start before starting service.
    assert request.start >= spec.model.load_time_s
    assert request.replica_id == replica.replica_id


def test_unknown_function_rejected(stack):
    engine, cluster, gateway, controller, spec = stack
    with pytest.raises(KeyError):
        gateway.submit("nope")


def test_least_loaded_routing_balances(stack):
    engine, cluster, gateway, controller, spec = stack
    controller.scale_up(cluster.node(0), 24, 1.0, 1.0)
    controller.scale_up(cluster.node(0), 24, 1.0, 1.0)
    engine.run(until=spec.model.load_time_s + 0.5)
    OpenLoopGenerator(
        engine, gateway, "classify", StepTrace([(5.0, 60)], poisson=False)
    )
    engine.run(until=engine.now + 5.0)
    served = {r.replica_id for r in gateway.log.completed}
    assert len(served) == 2  # both replicas took traffic
    counts = [sum(1 for r in gateway.log.completed if r.replica_id == rid) for rid in served]
    assert min(counts) > 0.3 * max(counts)


def test_closed_loop_client_saturates(stack):
    engine, cluster, gateway, controller, spec = stack
    controller.scale_up(cluster.node(0), 100, 1.0, 1.0)
    engine.run(until=spec.model.load_time_s + 0.5)
    t0 = engine.now
    client = ClosedLoopClient(engine, gateway, "classify", concurrency=4)
    engine.run(until=t0 + 10.0)
    throughput = len(gateway.log.in_window(t0, engine.now)) / 10.0
    # Full GPU, full quota: ~71 req/s (the paper's racing-pod rate).
    assert throughput == pytest.approx(71.37, rel=0.06)
    client.stop()


def test_scale_down_drains_without_losing_requests(stack):
    engine, cluster, gateway, controller, spec = stack
    controller.scale_up(cluster.node(0), 24, 1.0, 1.0)
    controller.scale_up(cluster.node(0), 24, 1.0, 1.0)
    engine.run(until=spec.model.load_time_s + 0.5)
    OpenLoopGenerator(engine, gateway, "classify", StepTrace([(8.0, 40)], poisson=False))
    engine.run(until=engine.now + 2.0)
    victim = next(iter(controller.replicas))
    controller.scale_down(victim, drain=True)
    engine.run(until=engine.now + 8.0)
    assert controller.replica_count == 1
    submitted = gateway.submitted["classify"]
    assert len(gateway.log) == submitted  # every submitted request completed
    assert cluster.pods == {} or victim not in cluster.pods


def test_kill_reroutes_inflight_request(stack):
    engine, cluster, gateway, controller, spec = stack
    controller.scale_up(cluster.node(0), 24, 1.0, 1.0)
    controller.scale_up(cluster.node(0), 24, 1.0, 1.0)
    engine.run(until=spec.model.load_time_s + 0.5)
    OpenLoopGenerator(engine, gateway, "classify", StepTrace([(6.0, 30)], poisson=False))
    engine.run(until=engine.now + 1.0)
    victim = next(iter(controller.replicas))
    controller.scale_down(victim, drain=False)
    engine.run(until=engine.now + 8.0)
    assert len(gateway.log) == gateway.submitted["classify"]


def test_observed_and_predicted_rps(stack):
    engine, cluster, gateway, controller, spec = stack
    controller.scale_up(cluster.node(0), 24, 1.0, 1.0)
    engine.run(until=spec.model.load_time_s + 0.5)
    OpenLoopGenerator(engine, gateway, "classify", StepTrace([(10.0, 20)], poisson=False))
    engine.run(until=engine.now + 6.0)
    assert gateway.observed_rps("classify", window_s=5.0) == pytest.approx(20, rel=0.15)
    assert gateway.predicted_rps("classify") >= 19
    assert gateway.observed_rps("never-seen") == 0.0


def test_replica_rejects_when_not_accepting(stack):
    engine, cluster, gateway, controller, spec = stack
    replica = controller.scale_up(cluster.node(0), 24, 1.0, 1.0)
    from repro.faas.requests import Request

    with pytest.raises(RuntimeError):
        replica.enqueue(Request(function="classify", arrival=0.0))
