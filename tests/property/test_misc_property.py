"""Property-based tests: engine ordering, memory ledger, workloads, scaler."""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.faas.workload import StepTrace
from repro.gpu import MemoryLedger
from repro.gpu.memory import GpuOutOfMemoryError
from repro.profiler import ProfileDatabase, ProfilePoint
from repro.scheduler import HeuristicScaler, RunningPod, ScaleDownAction, ScaleUpAction
from repro.sim import Engine


# ---- engine ordering -----------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_engine_executes_in_time_order(times):
    engine = Engine()
    fired: list[float] = []
    for t in times:
        engine.schedule(t, lambda t=t: fired.append(t))
    engine.run()
    assert fired == sorted(times)
    assert engine.now == max(times)


# ---- memory ledger ----------------------------------------------------------------

@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.floats(min_value=1, max_value=4000)),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=50, deadline=None)
def test_ledger_accounting_is_exact(operations):
    ledger = MemoryLedger(10000)
    held: dict[str, float] = {"a": 0.0, "b": 0.0, "c": 0.0}
    for owner, amount in operations:
        try:
            ledger.allocate(owner, amount)
            held[owner] += amount
        except GpuOutOfMemoryError:
            assert sum(held.values()) + amount > 10000
    assert ledger.used_mb == sum(held.values()) or abs(ledger.used_mb - sum(held.values())) < 1e-6
    for owner, amount in held.items():
        assert abs(ledger.owner_usage_mb(owner) - amount) < 1e-6
    for owner, amount in held.items():
        released = ledger.release_owner(owner)
        assert abs(released - amount) < 1e-6
    assert ledger.used_mb < 1e-6


# ---- workloads -------------------------------------------------------------------------

@given(st.floats(min_value=1, max_value=200), st.floats(min_value=1, max_value=60),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_poisson_arrivals_sorted_and_bounded(rps, duration, seed):
    workload = StepTrace([(duration, rps)])
    times = list(workload.arrival_times(np.random.default_rng(seed)))
    assert times == sorted(times)
    assert all(0 < t <= duration for t in times)


@given(
    st.lists(
        st.tuples(st.floats(min_value=1, max_value=30), st.floats(min_value=0, max_value=100)),
        min_size=1, max_size=6,
    ),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_step_trace_rate_matches_steps(steps, seed):
    trace = StepTrace(steps, poisson=False)
    assert trace.duration == sum(d for d, _ in steps) or abs(
        trace.duration - sum(d for d, _ in steps)
    ) < 1e-9
    edges = np.cumsum([0.0] + [d for d, _ in steps])
    for (start, (duration, rps)) in zip(edges[:-1], steps):
        midpoint = start + duration / 2
        assert trace.rps_at(midpoint) == rps


# ---- Algorithm 1 coverage properties ---------------------------------------------------

@st.composite
def profile_dbs(draw) -> ProfileDatabase:
    db = ProfileDatabase()
    n = draw(st.integers(min_value=1, max_value=8))
    for i in range(n):
        sm = draw(st.sampled_from([6.0, 12.0, 24.0, 50.0, 100.0]))
        quota = draw(st.sampled_from([0.2, 0.4, 0.6, 1.0]))
        throughput = draw(st.floats(min_value=1.0, max_value=100.0))
        db.insert(ProfilePoint("f", sm, quota, throughput))
    return db


@given(profile_dbs(), st.floats(min_value=0.1, max_value=500.0))
@settings(max_examples=60, deadline=None)
def test_scale_up_always_covers_the_gap(db, delta):
    scaler = HeuristicScaler(db)
    actions = scaler.plan({"f": delta}, {"f": []})
    assert all(isinstance(a, ScaleUpAction) for a in actions)
    planned = sum(a.throughput for a in actions)
    t_eff = scaler.p_eff("f").throughput
    # Covers the gap (possibly overshooting by at most one p_eff pod's worth,
    # since p_ideal > residual and p_ideal <= ... every profiled T).
    assert planned >= delta - 1e-6
    max_t = max(p.throughput for p in db.points("f"))
    assert planned <= delta + max(t_eff, max_t) + 1e-6


@given(
    profile_dbs(),
    st.floats(min_value=0.5, max_value=300.0),
    st.lists(st.floats(min_value=1.0, max_value=60.0), min_size=1, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_scale_down_never_overshoots_surplus(db, surplus, throughputs):
    running = [
        RunningPod(f"pod{i}", 12.0, 0.4, throughput)
        for i, throughput in enumerate(throughputs)
    ]
    scaler = HeuristicScaler(db)
    actions = scaler.plan({"f": -surplus}, {"f": running})
    assert all(isinstance(a, ScaleDownAction) for a in actions)
    removed = sum(a.throughput for a in actions)
    assert removed <= surplus + 1e-9
    # Removed pods exist and are distinct.
    ids = [a.pod_id for a in actions]
    assert len(ids) == len(set(ids))
