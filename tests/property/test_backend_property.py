"""Property-based tests of the FaST Backend token scheduler invariants."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.gpu import CudaDriver, GPUDevice, InferencePlan, MPSServer, gpu_spec
from repro.manager import FaSTBackend, FaSTFrontend
from repro.sim import Engine


@st.composite
def pod_configs(draw):
    partition = draw(st.sampled_from([6.0, 12.0, 24.0, 50.0, 60.0]))
    quota_request = draw(st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.5]))
    quota_limit = min(1.0, quota_request + draw(st.sampled_from([0.0, 0.2, 0.4])))
    burst = draw(st.sampled_from([0.002, 0.005, 0.01]))
    return partition, quota_request, quota_limit, burst


def hammer(burst: float, horizon: float) -> InferencePlan:
    """An always-busy pod: back-to-back bursts of ``burst`` seconds with no
    host gaps (so the token is held across bursts), more than fit in
    ``horizon``."""
    count = round(horizon / burst) + 1
    return InferencePlan([burst] * count, 0.01, [0.0] * count)


@given(st.lists(pod_configs(), min_size=1, max_size=6))
@settings(max_examples=25, deadline=None)
def test_sm_limit_and_quota_limits_hold_under_contention(configs):
    """At every instant Σ running partitions ≤ 100%, and in the long run no
    pod exceeds its quota_limit share (modulo one-burst quantisation)."""
    engine = Engine()
    device = GPUDevice(engine, gpu_spec("V100"))
    driver = CudaDriver(engine, device)
    mps = MPSServer(device)
    mps.start()
    backend = FaSTBackend(engine, window=0.05)
    horizon = 2.0

    peak_running = 0.0
    original_acquire = backend.adapter.acquire

    def tracking_acquire(pod_id, partition):
        nonlocal peak_running
        original_acquire(pod_id, partition)
        peak_running = max(peak_running, backend.adapter.running_total)

    backend.adapter.acquire = tracking_acquire  # type: ignore[method-assign]

    frontends = []
    for i, (partition, q_req, q_lim, burst) in enumerate(configs):
        frontend = FaSTFrontend(
            engine, f"pod{i}", backend, driver, mps,
            sm_partition=partition, quota_request=q_req, quota_limit=q_lim,
            gpu_mem_mb=10.0,
        )
        frontends.append((frontend, burst))

        engine.process(frontend.hook.run_plan(hammer(burst, horizon)))

    engine.run(until=horizon)

    assert peak_running <= 100.0 + 1e-6
    for i, ((frontend, burst), (partition, q_req, q_lim, _)) in enumerate(
        zip(frontends, configs)
    ):
        entry = backend.entries[f"pod{i}"]
        share = entry.total_gpu_seconds / horizon
        # One in-flight burst per window may overshoot; bound it.
        slack = burst / backend.window * 1.5 + 0.02
        assert share <= q_lim + slack, (i, share, q_lim)


@given(st.lists(pod_configs(), min_size=2, max_size=5))
@settings(max_examples=20, deadline=None)
def test_guaranteed_shares_met_when_feasible(configs):
    """If Σ quota_requests ≤ 1 and Σ partitions ≤ 100, every always-busy pod
    receives at least ~its guaranteed share (Q_miss priority at work)."""
    total_request = sum(q for _, q, _, _ in configs)
    total_partition = sum(p for p, _, _, _ in configs)
    if total_request > 1.0 or total_partition > 100.0:
        return  # infeasible instance: nothing to assert

    engine = Engine()
    device = GPUDevice(engine, gpu_spec("V100"))
    driver = CudaDriver(engine, device)
    mps = MPSServer(device)
    mps.start()
    backend = FaSTBackend(engine, window=0.05)
    horizon = 2.0

    for i, (partition, q_req, q_lim, burst) in enumerate(configs):
        frontend = FaSTFrontend(
            engine, f"pod{i}", backend, driver, mps,
            sm_partition=partition, quota_request=q_req, quota_limit=q_lim,
            gpu_mem_mb=10.0,
        )

        engine.process(frontend.hook.run_plan(hammer(burst, horizon)))

    engine.run(until=horizon)
    for i, (partition, q_req, _q_lim, burst) in enumerate(configs):
        share = backend.entries[f"pod{i}"].total_gpu_seconds / horizon
        # Quantisation: a pod can lose up to ~a burst per window.
        tolerance = burst / backend.window + 0.05
        assert share >= q_req - q_req * tolerance - 0.02, (i, share, q_req)
