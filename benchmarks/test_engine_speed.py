"""Microbenchmarks of the simulation substrate itself.

These guard the guides' "profile before optimizing" workflow: the DES core
and the fluid device are the hot paths of every experiment; regressions here
multiply across the whole harness.
"""

from __future__ import annotations

from repro.gpu import GPUDevice, KernelBurst, gpu_spec
from repro.sim import Engine


def _timer_churn() -> float:
    engine = Engine()
    count = 0

    def tick():
        nonlocal count
        count += 1
        if count < 20_000:
            engine.schedule(0.001, tick)

    engine.schedule(0.001, tick)
    engine.run()
    return engine.now


def test_engine_event_throughput(benchmark):
    result = benchmark(_timer_churn)
    assert result > 0


def _process_sleep_churn() -> int:
    """50 processes looping on bare-delay sleeps: 10,000 wakes, some due at
    the same instant (deferred through the lane), most alone (resumed
    inline)."""
    engine = Engine()
    done = 0

    def sleeper(delay: float):
        nonlocal done
        for _ in range(200):
            yield delay
        done += 1

    for index in range(50):
        engine.process(sleeper(0.001 * (1 + index % 7)))
    engine.run()
    return done


def test_process_sleep_throughput(benchmark):
    assert benchmark(_process_sleep_churn) == 50


def _device_churn() -> int:
    engine = Engine()
    device = GPUDevice(engine, gpu_spec("V100"))
    submitted = 0

    def feed():
        nonlocal submitted
        for _ in range(4):
            device.submit(KernelBurst(duration=0.004, sm_demand=12, sm_activity=0.02))
            submitted += 1
        if submitted < 8_000:
            engine.schedule(0.004, feed)

    engine.schedule(0.0, feed)
    engine.run()
    return device.completed_bursts


def test_device_fluid_model_throughput(benchmark):
    completed = benchmark(_device_churn)
    assert completed == 8_000


def _heavy_overlap_churn() -> int:
    """4,000 bursts fed 32 at a time every 4 ms, each 64 ms long."""
    engine = Engine()
    device = GPUDevice(engine, gpu_spec("V100"))
    submitted = 0

    def feed():
        nonlocal submitted
        for _ in range(32):
            device.submit(KernelBurst(duration=0.064, sm_demand=12, sm_activity=0.02))
            submitted += 1
        if submitted < 4_000:
            engine.schedule(0.004, feed)

    engine.schedule(0.0, feed)
    engine.run()
    return device.completed_bursts


def test_device_heavy_overlap_throughput(benchmark):
    """~32 bursts resident at once: the regime where the seed model's O(n)
    timer sweeps were quadratic (76 s at this scale; now ~tens of ms).
    ``tests/property/test_device_churn.py`` checks this regime against that
    seed model for correctness.
    """
    assert benchmark(_heavy_overlap_churn) == 4_000


def _cancel_churn() -> int:
    """Cancel-heavy scheduling: exercises lazy deletion + heap compaction."""
    engine = Engine()
    fired = 0

    def tick(i: int):
        nonlocal fired
        fired += 1
        for _ in range(8):
            engine.schedule(10.0, tick, -1).cancel()
        if i < 10_000:
            engine.schedule(0.001, tick, i + 1)

    engine.schedule(0.001, tick, 1)
    engine.run()
    return fired


def test_cancel_churn_throughput(benchmark):
    assert benchmark(_cancel_churn) == 10_000


def _process_churn() -> int:
    engine = Engine()
    done = 0

    def worker():
        nonlocal done
        for _ in range(200):
            yield engine.timeout(0.01)
        done += 1

    for _ in range(50):
        engine.process(worker())
    engine.run()
    return done


def test_process_switch_throughput(benchmark):
    assert benchmark(_process_churn) == 50
