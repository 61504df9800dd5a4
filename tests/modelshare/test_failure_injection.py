"""Failure injection: pods dying mid-STORE must not wedge the store.

Regression tests for the abort-store path: the first loader is interrupted
during its host→device transfer; waiters must recover by redoing the STORE
instead of blocking forever on the dead pod's materialization event.
"""

from __future__ import annotations

import pytest

from repro.gpu import CudaDriver, GPUDevice
from repro.models import get_model
from repro.modelshare import ModelStorageServer, ModelStoreLib
from repro.modelshare.server import ModelShareError
from repro.sim import Engine, Interrupt


@pytest.fixture
def shared_stack(engine: Engine, v100: GPUDevice):
    driver = CudaDriver(engine, v100)
    server = ModelStorageServer(engine, driver)
    return engine, v100, driver, server


def make_lib(engine, server, driver, pod_id):
    ctx = driver.create_context(pod_id)
    return ModelStoreLib(engine, server, driver, ctx, pod_id)


def test_storer_killed_midway_second_loader_recovers(shared_stack):
    engine, device, driver, server = shared_stack
    model = get_model("vit_huge")
    lib1 = make_lib(engine, server, driver, "pod1")
    lib2 = make_lib(engine, server, driver, "pod2")
    outcome = {}

    def storer():
        try:
            yield from lib1.load_shared(model)
            outcome["pod1"] = "loaded"
        except Interrupt:
            outcome["pod1"] = "killed"

    def waiter():
        yield engine.timeout(0.5)  # join while pod1 is mid-STORE
        yield from lib2.load_shared(model)
        outcome["pod2"] = ("loaded", engine.now)

    proc1 = engine.process(storer())
    engine.process(waiter())
    engine.schedule(1.0, proc1.interrupt, "eviction mid-load")
    engine.run(until=30.0)

    assert outcome["pod1"] == "killed"
    status, t = outcome["pod2"]
    assert status == "loaded"
    # pod2 redid the full STORE after the abort at t=1.0.
    assert t == pytest.approx(1.0 + model.load_time_s, abs=0.01)
    # Exactly one copy of the tensors resident; refcount correct.
    assert server.refcount(model.name) == 1
    assert device.memory.owner_usage_mb(server.name) == pytest.approx(model.memory.server_mb)


def test_abort_store_frees_memory(shared_stack):
    engine, device, driver, server = shared_stack
    model = get_model("resnet50")
    lib = make_lib(engine, server, driver, "pod1")

    def storer():
        yield from lib.load_shared(model)

    proc = engine.process(storer())
    engine.schedule(0.5, proc.interrupt)
    engine.run(until=5.0)
    assert server.stored_models() == []
    assert device.memory.used_mb == 0.0


def test_abort_after_materialization_is_noop(shared_stack):
    engine, device, driver, server = shared_stack
    model = get_model("resnet50")
    lib = make_lib(engine, server, driver, "pod1")

    def storer():
        yield from lib.load_shared(model)

    engine.process(storer())
    engine.run(until=10.0)
    server.abort_store(model.name)  # already materialized: no-op
    assert server.stored_models() == [model.name]


def test_abort_unknown_model_is_noop(shared_stack):
    engine, device, driver, server = shared_stack
    server.abort_store("never-stored")


def test_abort_with_mappers_raises(shared_stack):
    engine, device, driver, server = shared_stack
    model = get_model("resnet50")
    record = server.store(model)
    record.materialized  # still pending
    server.attach(model.name)
    with pytest.raises(ModelShareError):
        server.abort_store(model.name)


def test_scale_down_during_cold_start_does_not_wedge_platform():
    """End-to-end: killing a cold-starting pod leaves the rest healthy."""
    from repro import FaSTGShare

    platform = FaSTGShare.build(nodes=1, sharing="fast", seed=5)
    platform.register_function("fn", model="vit_huge", model_sharing=True)
    replicas = platform.deploy("fn", configs=[(24, 0.5)] * 3, node=0)
    # Kill the first (storing) pod 1 s into its load.
    platform.engine.run(until=1.0)
    platform.scale_down("fn", replicas[0].pod.pod_id, drain=False)
    platform.wait_ready(timeout=60.0)  # the other two must come up
    assert sum(r.ready for r in platform.replicas("fn")) == 2
