"""Property tests for the pod lifecycle state machine (k8s/objects.py).

The allowed-transitions table is the authoritative state machine; these
tests pin its structural guarantees and then check that *real* platform
runs — cold starts, WARM_IDLE parking, HOST_RESIDENT demotion, swap-in
promotion, eviction — only ever walk edges of that table and keep a
complete per-pod history:

* no cold skips — ``PENDING`` never jumps straight to ``RUNNING``; every
  pod pays a ``STARTING`` phase first;
* ``HOST_RESIDENT`` re-enters the GPU exclusively through ``STARTING``
  (the swap-in), and only ``WARM_IDLE`` pods may park;
* ``TERMINATED`` is absorbing;
* the transition history chains (row N's destination is row N+1's
  source), starts at ``PENDING``, and ends at the pod's current phase;
* illegal transitions and negative costs are rejected without mutating
  the pod.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.k8s.objects import ALLOWED_TRANSITIONS, ObjectMeta, Pod, PodPhase, PodSpec


def make_pod() -> Pod:
    spec = PodSpec(
        function_name="fn",
        model_name="resnet50",
        sm_partition=12.0,
        quota_request=0.4,
        quota_limit=1.0,
        gpu_mem_mb=1024.0,
    )
    return Pod(meta=ObjectMeta(name="pod"), spec=spec)


# ---------------------------------------------------------------------------
# Structural properties of the table itself
# ---------------------------------------------------------------------------


def test_table_covers_every_phase():
    assert set(ALLOWED_TRANSITIONS) == set(PodPhase)


def test_no_cold_skip_edges():
    # PENDING cannot reach RUNNING or WARM_IDLE without paying STARTING.
    assert PodPhase.RUNNING not in ALLOWED_TRANSITIONS[PodPhase.PENDING]
    assert PodPhase.WARM_IDLE not in ALLOWED_TRANSITIONS[PodPhase.PENDING]


def test_host_resident_reenters_only_via_starting():
    exits = ALLOWED_TRANSITIONS[PodPhase.HOST_RESIDENT]
    assert exits <= {PodPhase.STARTING, PodPhase.TERMINATING}


def test_only_warm_idle_parks():
    for phase, targets in ALLOWED_TRANSITIONS.items():
        if PodPhase.HOST_RESIDENT in targets:
            assert phase is PodPhase.WARM_IDLE


def test_terminated_is_absorbing():
    assert ALLOWED_TRANSITIONS[PodPhase.TERMINATED] == frozenset()


def test_every_phase_except_terminated_can_reach_terminated():
    # Liveness: nothing gets stuck — scale-down always has a path out.
    reachable = {PodPhase.TERMINATED}
    changed = True
    while changed:
        changed = False
        for phase, targets in ALLOWED_TRANSITIONS.items():
            if phase not in reachable and targets & reachable:
                reachable.add(phase)
                changed = True
    assert reachable == set(PodPhase)


# ---------------------------------------------------------------------------
# Random walks: history completeness + rejection semantics
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=20))
def test_random_walk_keeps_complete_chained_history(choices):
    """Follow random allowed edges; the history must chain perfectly."""
    pod = make_pod()
    for choice in choices:
        targets = sorted(ALLOWED_TRANSITIONS[pod.phase], key=lambda p: p.value)
        if not targets:
            break
        pod.transition(targets[choice % len(targets)], cost=0.5)
    assert len(pod.transitions) > 0 or pod.phase is PodPhase.PENDING
    if pod.transitions:
        assert pod.transitions[0][0] is PodPhase.PENDING
        assert pod.transitions[-1][1] is pod.phase
    for (_, to_a, _), (from_b, _, _) in zip(pod.transitions, pod.transitions[1:]):
        assert to_a is from_b
    for from_phase, to_phase, cost in pod.transitions:
        assert to_phase in ALLOWED_TRANSITIONS[from_phase]
        assert cost >= 0.0


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(sorted(PodPhase, key=lambda p: p.value)),
    st.sampled_from(sorted(PodPhase, key=lambda p: p.value)),
)
def test_illegal_transitions_rejected_without_mutation(start, target):
    pod = make_pod()
    pod.phase = start  # test setup only; real code routes via transition()
    legal = target in ALLOWED_TRANSITIONS[start]
    if legal:
        pod.transition(target)
        assert pod.phase is target
        assert pod.transitions == [(start, target, 0.0)]
    else:
        with pytest.raises(ValueError):
            pod.transition(target)
        assert pod.phase is start
        assert pod.transitions == []


def test_negative_cost_rejected_without_mutation():
    pod = make_pod()
    with pytest.raises(ValueError):
        pod.transition(PodPhase.STARTING, cost=-0.1)
    assert pod.phase is PodPhase.PENDING
    assert pod.transitions == []


# ---------------------------------------------------------------------------
# Real platform runs only walk table edges
# ---------------------------------------------------------------------------


@settings(max_examples=4, deadline=None)
@given(st.integers(min_value=0, max_value=2**20))
def test_platform_lifecycle_histories_are_legal_walks(seed):
    """Cold starts, parking, demotion, swap-in, eviction: every pod the
    platform ever creates carries a chained, table-legal history."""
    from repro import FaSTGShare
    from repro.faas.loadgen import OpenLoopGenerator
    from repro.faas.workload import StepTrace
    from repro.memtier.policy import MemTierPolicy
    from repro.models import get_model
    from repro.profiler import ProfileDatabase
    from repro.scenario import AutoscalerSpec

    platform = FaSTGShare.build(nodes=2, sharing="fast", seed=seed, host_memory_mb=32768.0)
    platform.register_function("fn", model="resnet50", model_sharing=True, min_replicas=0)
    db = ProfileDatabase.analytic({"fn": get_model("resnet50")})
    platform.start_autoscaler(
        db,
        AutoscalerSpec(policy="memtier", interval=1.0, headroom=1.10, scale_down_cooldown=6.0),
        prewarm=MemTierPolicy(warm_gap_s=2.0, host_keepalive_s=10.0, spare_keepalive_s=3.0),
    )
    workload = StepTrace([(4.0, 25.0), (6.0, 0.0), (4.0, 25.0), (8.0, 0.0)], poisson=True)
    OpenLoopGenerator(platform.engine, platform.gateway, "fn", workload)

    seen: dict[str, Pod] = {}

    def snapshot() -> None:
        for pod in platform.cluster.pods.values():
            seen[pod.pod_id] = pod
        if platform.engine.now < workload.duration + 15.0:
            platform.engine.schedule(0.5, snapshot)

    platform.engine.schedule(0.5, snapshot)
    platform.engine.run(until=workload.duration + 20.0)

    assert seen, "no pods were ever created"
    for pod in seen.values():
        assert pod.transitions, f"{pod.pod_id} has no history"
        assert pod.transitions[0][0] is PodPhase.PENDING
        assert pod.transitions[-1][1] is pod.phase
        for (_, to_a, _), (from_b, _, _) in zip(pod.transitions, pod.transitions[1:]):
            assert to_a is from_b
        for from_phase, to_phase, cost in pod.transitions:
            assert to_phase in ALLOWED_TRANSITIONS[from_phase]
            assert cost >= 0.0
        # Swap-ins (HOST_RESIDENT -> STARTING) document their fabric cost.
        for from_phase, to_phase, cost in pod.transitions:
            if from_phase is PodPhase.HOST_RESIDENT and to_phase is PodPhase.STARTING:
                assert cost > 0.0
