"""Unit tests for arrival-process workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faas import StepTrace


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(123)


def test_constant_rate_spacing(rng):
    workload = StepTrace([(1.0, 10)], poisson=False)
    times = list(workload.arrival_times(rng))
    assert len(times) == 10
    gaps = np.diff([0.0] + times)
    np.testing.assert_allclose(gaps, 0.1)


def test_constant_rate_zero_rps(rng):
    assert list(StepTrace([(5.0, 0)], poisson=False).arrival_times(rng)) == []


def test_constant_rate_rps_at():
    workload = StepTrace([(2.0, 7)], poisson=False)
    assert workload.rps_at(1.0) == 7
    assert workload.rps_at(2.5) == 0
    assert workload.rps_at(-0.1) == 0


def test_poisson_rate_mean(rng):
    workload = StepTrace([(100.0, 50)])
    times = list(workload.arrival_times(rng))
    # Mean count 5000, std ~71: ±4 sigma bounds.
    assert 4700 < len(times) < 5300
    assert all(0 < t <= 100.0 for t in times)
    assert times == sorted(times)


def test_poisson_reproducible():
    w = StepTrace([(10.0, 5)])
    a = list(w.arrival_times(np.random.default_rng(7)))
    b = list(w.arrival_times(np.random.default_rng(7)))
    assert a == b


def test_step_trace_rates_and_duration():
    trace = StepTrace([(10, 5), (20, 50), (5, 0)])
    assert trace.duration == 35
    assert trace.rps_at(5) == 5
    assert trace.rps_at(10) == 50  # right-closed step edges
    assert trace.rps_at(29.99) == 50
    assert trace.rps_at(31) == 0
    assert trace.rps_at(35) == 0


def test_step_trace_deterministic_counts(rng):
    trace = StepTrace([(10, 2), (10, 8)], poisson=False)
    times = list(trace.arrival_times(rng))
    first = [t for t in times if t <= 10]
    second = [t for t in times if t > 10]
    assert len(first) == 20
    assert len(second) == 80


def test_step_trace_poisson_counts(rng):
    trace = StepTrace([(50, 10), (50, 40)], poisson=True)
    times = np.array(list(trace.arrival_times(rng)))
    first = (times <= 50).sum()
    second = (times > 50).sum()
    assert 350 < first < 650  # ~500 expected in the first step
    assert 1700 < second < 2300  # ~2000 expected in the second


def test_step_trace_validation():
    with pytest.raises(ValueError):
        StepTrace([])
    with pytest.raises(ValueError):
        StepTrace([(0, 5)])
    with pytest.raises(ValueError):
        StepTrace([(5, -1)])


def test_fig12_trace_envelope():
    trace = StepTrace.fig12_trace()
    assert trace.duration == pytest.approx(175)
    peaks = {trace.rps_at(t) for t in np.arange(0, 175, 1.0)}
    assert max(peaks) == 100
    assert min(peaks) == 10


def test_workload_validation():
    with pytest.raises(ValueError):
        StepTrace([(1, -1)], poisson=False)
    with pytest.raises(ValueError):
        StepTrace([(0, 1)])
