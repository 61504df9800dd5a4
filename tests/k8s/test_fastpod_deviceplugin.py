"""Unit tests for the FaSTPod controller."""

from __future__ import annotations

import pytest

from repro.faas import FunctionRegistry, FunctionSpec, Gateway
from repro.k8s import Cluster
from repro.k8s.fastpod import FaSTPodController
from repro.sim import Engine


@pytest.fixture
def stack(engine: Engine):
    cluster = Cluster(engine, nodes=2, sharing_mode="fast")
    registry = FunctionRegistry()
    spec = FunctionSpec.from_model("fn", "resnet50", use_model_sharing=True)
    registry.register(spec)
    gateway = Gateway(engine, registry)
    controller = FaSTPodController(engine, cluster, gateway, spec)
    return engine, cluster, gateway, controller, spec


def test_scale_up_builds_annotated_pod(stack):
    engine, cluster, gateway, controller, spec = stack
    replica = controller.scale_up(cluster.node(0), 12, 0.3, 0.8)
    pod = replica.pod
    assert pod.meta.annotations["faasshare/sm_partition"] == "12"
    assert pod.meta.annotations["faasshare/quota_request"] == "0.3"
    assert pod.meta.labels["faas_function"] == "fn"
    assert pod.pod_id in cluster.pods
    # Spec uses the shared-pod footprint because model sharing is on.
    assert pod.spec.gpu_mem_mb == spec.model.memory.shared_pod_mb


def test_pod_names_are_serial(stack):
    engine, cluster, gateway, controller, spec = stack
    r1 = controller.scale_up(cluster.node(0), 12, 0.3, 0.8)
    r2 = controller.scale_up(cluster.node(0), 12, 0.3, 0.8)
    assert r1.pod.meta.name == "fastpod-fn-1"
    assert r2.pod.meta.name == "fastpod-fn-2"


def test_running_configs(stack):
    engine, cluster, gateway, controller, spec = stack
    controller.scale_up(cluster.node(0), 12, 0.3, 0.8)
    controller.scale_up(cluster.node(1), 24, 0.4, 0.4)
    configs = {(sm, qr, ql) for _, sm, qr, ql in controller.running_configs()}
    assert configs == {(12, 0.3, 0.8), (24, 0.4, 0.4)}


def test_scale_down_unknown_raises(stack):
    engine, cluster, gateway, controller, spec = stack
    with pytest.raises(KeyError):
        controller.scale_down("ghost")


def test_scale_down_all(stack):
    engine, cluster, gateway, controller, spec = stack
    for _ in range(3):
        controller.scale_up(cluster.node(0), 12, 0.3, 0.8)
    engine.run(until=spec.model.load_time_s + 1.0)
    procs = controller.scale_down_all(drain=True)
    engine.run(until=engine.now + 2.0)
    assert controller.replica_count == 0
    assert all(p.ok for p in procs)
    assert cluster.pods == {}
    # All node resources released.
    assert cluster.node(0).pod_count == 0


def test_backend_rows_synced(stack):
    """Admission registers quotas in the node's FaST Backend table."""
    engine, cluster, gateway, controller, spec = stack
    replica = controller.scale_up(cluster.node(0), 12, 0.3, 0.8)
    entry = cluster.node(0).backend.entries[replica.pod.pod_id]
    assert entry.sm_partition == 12
    assert entry.quota_request == 0.3
    assert entry.quota_limit == 0.8
