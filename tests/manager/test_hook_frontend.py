"""Integration tests: hook library + frontend against a real device/backend."""

from __future__ import annotations

import pytest

from repro.gpu import CudaDriver, GPUDevice, InferencePlan, MPSServer
from repro.manager import FaSTBackend, FaSTFrontend
from repro.models import get_model
from repro.sim import Engine


@pytest.fixture
def stack(engine: Engine, v100: GPUDevice):
    driver = CudaDriver(engine, v100)
    mps = MPSServer(v100)
    mps.start()
    backend = FaSTBackend(engine, window=0.1)
    return engine, v100, driver, mps, backend


def make_frontend(stack, pod_id="pod-a", sm=24, q_req=0.5, q_lim=0.5, mem=500):
    engine, _, driver, mps, backend = stack
    return FaSTFrontend(
        engine,
        pod_id,
        backend,
        driver,
        mps,
        sm_partition=sm,
        quota_request=q_req,
        quota_limit=q_lim,
        gpu_mem_mb=mem,
    )


def bursts(duration: float, count: int = 1) -> InferencePlan:
    """``count`` bursts of ``duration`` at 5% activity, with no host gaps:
    the token is held from one burst to the next."""
    return InferencePlan([duration] * count, 0.05, [0.0] * count)


def test_frontend_wires_everything(stack):
    engine, device, driver, mps, backend = stack
    frontend = make_frontend(stack)
    assert "pod-a" in backend.entries
    assert device.memory.owner_usage_mb("pod-a") == 500
    assert frontend.ctx.sm_demand == 24
    assert len(mps.clients) == 1


def test_frontend_close_releases_everything(stack):
    engine, device, driver, mps, backend = stack
    frontend = make_frontend(stack)
    frontend.close()
    assert "pod-a" not in backend.entries
    assert device.memory.used_mb == 0
    assert mps.clients == []
    frontend.close()  # idempotent


def test_one_burst_plan_executes_and_charges(stack):
    engine, device, driver, mps, backend = stack
    frontend = make_frontend(stack, q_req=1.0, q_lim=1.0)
    results = []

    def task():
        residency = yield from frontend.hook.run_plan(bursts(0.02))
        results.append(residency)

    engine.process(task())
    engine.run(until=1.0)
    assert results == [pytest.approx(0.02)]
    assert backend.entries["pod-a"].total_gpu_seconds == pytest.approx(0.02)
    assert frontend.hook.bursts_executed == 1


def test_quota_throttles_throughput(stack):
    """A pod with 30% quota executes ~30% of GPU time in the long run."""
    engine, device, driver, mps, backend = stack
    frontend = make_frontend(stack, q_req=0.3, q_lim=0.3)
    # More bursts than fit in the horizon even at full quota.
    engine.process(frontend.hook.run_plan(bursts(0.01, 600)))
    engine.run(until=5.0)
    used = backend.entries["pod-a"].total_gpu_seconds
    assert used / 5.0 == pytest.approx(0.3, rel=0.15)


def test_full_quota_pod_is_unthrottled(stack):
    engine, device, driver, mps, backend = stack
    frontend = make_frontend(stack, q_req=1.0, q_lim=1.0)
    engine.process(frontend.hook.run_plan(bursts(0.01, 300)))
    engine.run(until=2.0)
    used = backend.entries["pod-a"].total_gpu_seconds
    assert used / 2.0 == pytest.approx(1.0, rel=0.02)
    assert frontend.hook.token_wait_seconds == pytest.approx(0.0, abs=1e-6)


def test_run_plan_full_request(stack):
    engine, device, driver, mps, backend = stack
    frontend = make_frontend(stack, sm=24, q_req=1.0, q_lim=1.0)
    model = get_model("resnet50")
    latencies = []

    def task():
        start = engine.now
        yield from frontend.hook.run_plan(model.make_plan(24))
        latencies.append(engine.now - start)

    engine.process(task())
    engine.run(until=1.0)
    # Idle GPU, full quota: latency equals the plan's total time.
    expected = model.gpu_time_ms / 1000 / model.scale(24) + model.host_time_ms / 1000
    assert latencies == [pytest.approx(expected, rel=1e-6)]
    # Token returned at end of request: no SM reservation left.
    assert backend.adapter.running_total == 0.0


def test_two_pods_share_spatially_without_interference(stack):
    """Two 24% pods with full quotas run concurrently at full speed."""
    engine, device, driver, mps, backend = stack
    f1 = make_frontend(stack, pod_id="p1", sm=24, q_req=1.0, q_lim=1.0)
    f2 = make_frontend(stack, pod_id="p2", sm=24, q_req=1.0, q_lim=1.0)
    done = {}

    def task(frontend, key):
        yield from frontend.hook.run_plan(bursts(0.05))
        done[key] = engine.now

    engine.process(task(f1, "p1"))
    engine.process(task(f2, "p2"))
    engine.run(until=1.0)
    assert done["p1"] == pytest.approx(0.05, abs=1e-9)
    assert done["p2"] == pytest.approx(0.05, abs=1e-9)


def test_token_wait_accounted(stack):
    engine, device, driver, mps, backend = stack
    f1 = make_frontend(stack, pod_id="p1", sm=100, q_req=1.0, q_lim=1.0)
    f2 = make_frontend(stack, pod_id="p2", sm=100, q_req=1.0, q_lim=1.0)

    engine.process(f1.hook.run_plan(bursts(0.05)))  # releases at the end
    engine.process(f2.hook.run_plan(bursts(0.05)))
    engine.run(until=1.0)
    # Second pod had to wait for the first's 100% SM token.
    waits = f1.hook.token_wait_seconds + f2.hook.token_wait_seconds
    assert waits == pytest.approx(0.05, rel=1e-6)
