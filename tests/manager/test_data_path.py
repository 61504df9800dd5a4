"""One data path for every sharing mode: frontend → hook → driver → device."""

from __future__ import annotations

import pytest

from repro.gpu import CudaDriver, GPUDevice, MPSServer
from repro.manager import FaSTBackend
from repro.models import get_model
from repro.platform import FaSTGShare
from repro.sim import Engine


def serve(sharing: str, rps: float = 50.0, duration: float = 6.0) -> FaSTGShare:
    platform = FaSTGShare.build(nodes=1, sharing=sharing, seed=3)
    platform.register_function("classify", model="resnet50")
    platform.deploy("classify", configs=[(24, 1.0)])
    platform.run_workload("classify", rps=rps, duration=duration)
    return platform


def test_plan_partition_applied_at_launch(engine: Engine, v100: GPUDevice, monkeypatch):
    """A plan carries no partition: the launching context's MPS client
    stamps it on every burst the device receives."""
    submitted = []
    submit = v100.submit

    def recording_submit(burst):
        submitted.append(burst)
        return submit(burst)

    monkeypatch.setattr(v100, "submit", recording_submit)
    mps = MPSServer(v100)
    mps.start()
    driver = CudaDriver(engine, v100)
    ctx = driver.create_context("pod-a", mps.connect("pod-a", 12))
    plan = get_model("rnnt").make_plan(12)
    for duration, _gap in plan.steps():
        driver.launch_burst(ctx, duration, plan.sm_activity)
    engine.run()
    assert len(submitted) == len(plan.durations) > 0
    assert all(b.sm_demand == 12 and b.sm_activity <= 0.12 for b in submitted)


def test_context_keeps_only_unsettled_bursts():
    """Settled burst events do not pile up on a serving replica's context."""
    platform = serve("fast")
    (replica,) = platform.controllers["classify"].replicas.values()
    assert replica.requests_served >= 200
    assert len(replica.container.hook.ctx.outstanding) <= 1


@pytest.mark.parametrize(
    "sharing, gated",
    [("fast", True), ("timeshare", True), ("racing", False), ("exclusive", False)],
)
def test_only_managed_modes_request_tokens(sharing, gated, monkeypatch):
    calls = []
    request_token = FaSTBackend.request_token

    def counting_request_token(backend, pod_id):
        calls.append(pod_id)
        return request_token(backend, pod_id)

    monkeypatch.setattr(FaSTBackend, "request_token", counting_request_token)
    platform = serve(sharing, duration=2.0)
    (replica,) = platform.controllers["classify"].replicas.values()
    assert replica.requests_served > 0
    assert (replica.container.hook.backend is not None) is gated
    assert bool(calls) is gated
