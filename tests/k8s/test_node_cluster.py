"""Unit tests for GPU nodes and the cluster."""

from __future__ import annotations

import pytest

from repro.gpu import GpuOutOfMemoryError
from repro.k8s import Cluster, ObjectMeta, Pod, PodPhase, PodSpec
from repro.k8s.node import NodeError
from repro.sim import Engine


def make_pod(name="p", sm=12, q=0.4, mem=1500, sharing=False, model="resnet50") -> Pod:
    spec = PodSpec(
        function_name="f",
        model_name=model,
        sm_partition=sm,
        quota_request=q,
        quota_limit=q,
        gpu_mem_mb=mem,
        use_model_sharing=sharing,
    )
    return Pod(meta=ObjectMeta(name=name), spec=spec)


@pytest.fixture
def cluster(engine: Engine) -> Cluster:
    return Cluster(engine, nodes=2, gpu="V100", sharing_mode="fast")


def test_cluster_builds_named_nodes(cluster: Cluster):
    assert [n.name for n in cluster.nodes] == ["node0", "node1"]
    assert cluster.node(0) is cluster.node("node0")
    with pytest.raises(KeyError):
        cluster.node("node9")


def test_cluster_requires_a_node(engine: Engine):
    with pytest.raises(ValueError):
        Cluster(engine, nodes=0)
    with pytest.raises(ValueError):
        Cluster(engine, nodes=[])


def test_heterogeneous_cluster_builds_per_node_specs(engine: Engine):
    cluster = Cluster(engine, nodes=["V100", "A100", "T4"])
    assert [n.spec.name for n in cluster.nodes] == ["V100", "A100", "T4"]
    assert cluster.heterogeneous
    factors = cluster.speed_factors()
    assert factors["node1"] > factors["node0"] > factors["node2"]
    # Memory capacity follows the per-node spec (A100 has 40 GB).
    assert cluster.node(1).device.memory.capacity_mb > cluster.node(0).device.memory.capacity_mb


def test_homogeneous_cluster_is_not_heterogeneous(engine: Engine):
    cluster = Cluster(engine, nodes=2, gpu="V100")
    assert not cluster.heterogeneous
    assert set(cluster.speed_factors().values()) == {1.0}


def test_admit_wires_fast_container(cluster: Cluster):
    node = cluster.node(0)
    pod = make_pod()
    container = node.admit(pod)
    assert pod.phase is PodPhase.STARTING
    assert pod.node_name == "node0"
    assert container.frontend is not None
    assert container.hook.ctx.sm_demand == 12
    assert node.device.memory.owner_usage_mb(pod.pod_id) == 1500


def test_timeshare_mode_forces_full_partition(engine: Engine):
    cluster = Cluster(engine, nodes=1, sharing_mode="timeshare")
    node = cluster.node(0)
    container = node.admit(make_pod(sm=12))
    # KubeShare pods always see the whole GPU spatially.
    assert container.hook.ctx.sm_demand == 100


def test_racing_mode_has_no_backend_gating(engine: Engine):
    cluster = Cluster(engine, nodes=1, sharing_mode="racing")
    node = cluster.node(0)
    container = node.admit(make_pod())
    assert container.hook.backend is None
    assert container.hook.ctx.sm_demand == 100
    assert not node.backend.entries  # nothing registered with the backend


def test_exclusive_mode_rejects_second_pod(engine: Engine):
    cluster = Cluster(engine, nodes=1, sharing_mode="exclusive")
    node = cluster.node(0)
    node.admit(make_pod(name="first"))
    with pytest.raises(NodeError, match="exclusive"):
        node.admit(make_pod(name="second"))


def test_admission_checks_memory(engine: Engine):
    cluster = Cluster(engine, nodes=1)
    node = cluster.node(0)
    node.admit(make_pod(name="big1", mem=9000))
    with pytest.raises(GpuOutOfMemoryError):
        node.admit(make_pod(name="big2", mem=9000))


def test_memory_requirement_includes_server_for_first_shared_pod(engine: Engine):
    cluster = Cluster(engine, nodes=1)
    node = cluster.node(0)
    shared = make_pod(name="s1", mem=1427, sharing=True)
    req = node.pod_memory_requirement_mb(shared)
    # shared pod + first-instance storage-server share (416 for resnet50).
    assert req == pytest.approx(1427 + 416)


def test_evict_releases_resources(engine: Engine):
    cluster = Cluster(engine, nodes=1)
    node = cluster.node(0)
    pod = make_pod()
    node.admit(pod)
    node.evict(pod)
    assert pod.phase is PodPhase.TERMINATED
    assert node.device.memory.used_mb == 0
    assert node.pod_count == 0
    with pytest.raises(NodeError):
        node.evict(pod)


def test_double_admit_rejected(engine: Engine):
    cluster = Cluster(engine, nodes=2)
    pod = make_pod()
    cluster.node(0).admit(pod)
    with pytest.raises(NodeError):
        cluster.node(0).admit(pod)


def test_unknown_sharing_mode(engine: Engine):
    with pytest.raises(NodeError):
        Cluster(engine, nodes=1, sharing_mode="magic")


def test_pod_registry(cluster: Cluster):
    pod = make_pod()
    cluster.register_pod(pod)
    with pytest.raises(ValueError):
        cluster.register_pod(pod)
    cluster.forget_pod(pod.pod_id)
    cluster.register_pod(pod)


def test_node_metrics_shape(cluster: Cluster, engine: Engine):
    engine.run(until=1.0)
    metrics = cluster.node_metrics()
    assert len(metrics) == 2
    for name, util, occ in metrics:
        assert util == 0.0 and occ == 0.0
