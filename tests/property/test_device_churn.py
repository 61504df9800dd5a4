"""Heavy-churn differential tests: single-timer device vs seed semantics.

The production :class:`~repro.gpu.device.GPUDevice` replaced per-burst
completion timers with a virtual-work-clock single-timer model.  These tests
replay identical burst schedules — including thousands of overlapping bursts
with randomized demands, and cancellation churn from interleaved engine
timers — through both the new model and the seed-semantics
:class:`reference_device.ReferenceGPUDevice`, asserting that

* total executed work equals submitted work (work conservation),
* the busy-time and occupancy metric integrals agree, and
* the makespan (engine clock at drain) agrees

to within accumulated-float tolerance.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.gpu import GPUDevice, KernelBurst, gpu_spec
from repro.sim import Engine
from tests.property.reference_device import ReferenceGPUDevice


def _replay(device_cls, specs):
    """Run one burst schedule; return (makespan, work, busy, occ, count)."""
    engine = Engine()
    device = device_cls(engine, gpu_spec("V100"))

    def submit(duration: float, demand: float) -> None:
        device.submit(
            KernelBurst(
                duration=duration,
                sm_demand=demand,
                sm_activity=min(0.05, demand / 100),
            )
        )

    for duration, demand, delay in specs:
        engine.schedule(delay, submit, duration, demand)
    engine.run()
    device.sync_metrics()
    now = engine.now
    return (
        now,
        device.completed_work,
        device.metrics.busy_seconds,
        device.metrics.sm_occupancy(now) if now > 0 else 0.0,
        device.completed_bursts,
    )


burst_specs = st.tuples(
    st.floats(min_value=0.001, max_value=2.0),   # duration
    st.floats(min_value=1.0, max_value=100.0),   # sm demand
    st.floats(min_value=0.0, max_value=2.0),     # submit delay
)


@given(st.lists(burst_specs, min_size=1, max_size=25))
@settings(max_examples=60, deadline=None)
def test_single_timer_model_matches_reference(specs):
    new = _replay(GPUDevice, specs)
    ref = _replay(ReferenceGPUDevice, specs)
    assert new[0] == pytest.approx(ref[0], abs=1e-6)   # makespan
    assert new[1] == pytest.approx(ref[1], abs=1e-6)   # completed work
    assert new[2] == pytest.approx(ref[2], abs=1e-6)   # busy integral
    assert new[3] == pytest.approx(ref[3], abs=1e-6)   # occupancy integral
    assert new[4] == ref[4]                            # completed count


def _random_schedule(seed: int, n: int):
    rng = random.Random(seed)
    return [
        (
            rng.uniform(0.0005, 0.25),
            rng.choice([5.0, 12.0, 25.0, 40.0, 75.0, 100.0]),
            rng.uniform(0.0, 8.0),
        )
        for _ in range(n)
    ]


@pytest.mark.parametrize("seed", [1, 7, 1234])
def test_thousands_of_overlapping_bursts_conserve_work(seed):
    """Heavy churn: 2000 overlapping bursts with randomized demands."""
    specs = _random_schedule(seed, 2000)
    makespan, work, busy, occ, count = _replay(GPUDevice, specs)
    submitted = sum(d for d, _, _ in specs)
    assert work == pytest.approx(submitted, abs=1e-6)
    assert count == len(specs)
    assert busy <= makespan + 1e-9
    assert 0.0 <= occ <= 1.0 + 1e-9


def test_heavy_churn_matches_reference_end_to_end():
    """One big differential run (500 bursts) — integrals and makespan agree."""
    specs = _random_schedule(99, 500)
    new = _replay(GPUDevice, specs)
    ref = _replay(ReferenceGPUDevice, specs)
    assert new[0] == pytest.approx(ref[0], abs=1e-6)
    assert new[1] == pytest.approx(ref[1], abs=1e-6)
    assert new[2] == pytest.approx(ref[2], abs=1e-6)
    assert new[3] == pytest.approx(ref[3], abs=1e-6)
    assert new[4] == ref[4]


def test_churn_with_cancelled_engine_timers_keeps_device_exact():
    """Interleave thousands of cancelled engine timers (compaction churn)
    with device transitions: the device's accounting must stay exact."""
    engine = Engine()
    device = GPUDevice(engine, gpu_spec("V100"))
    rng = random.Random(5)
    cancelled: list = []
    submitted = 0.0

    def tick(i: int) -> None:
        nonlocal submitted
        duration = rng.uniform(0.001, 0.05)
        submitted += duration
        device.submit(
            KernelBurst(duration=duration, sm_demand=25, sm_activity=0.02)
        )
        # Speculative timers that are immediately cancelled — the pattern
        # that used to bloat the engine heap.
        for _ in range(4):
            handle = engine.schedule(rng.uniform(0.1, 5.0), lambda: None)
            handle.cancel()
            cancelled.append(handle)
        if i < 1500:
            engine.schedule(rng.uniform(0.001, 0.01), tick, i + 1)

    engine.schedule(0.0, tick, 0)
    engine.run()
    device.sync_metrics()
    assert device.completed_bursts == 1501
    assert device.completed_work == pytest.approx(submitted, abs=1e-6)
    assert device.active_count == 0
    assert device.active_demand == 0.0
    assert engine.pending_events == 0
