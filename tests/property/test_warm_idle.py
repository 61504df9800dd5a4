"""Property tests for the WARM_IDLE pre-warm state.

Whatever the traffic and policy knobs:

* a WARM_IDLE pod never holds time quota — its backend row shows no token,
  zero ``q_used``, zero grants, and the SM adapter carries no acquisition
  for it;
* node memory is never over-committed (warm pods hold real memory);
* under the same seed, the promotion sequence is bit-identical between
  replays (deterministic scale-to-zero + re-warm round trips).
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import FaSTGShare
from repro.faas.loadgen import OpenLoopGenerator
from repro.faas.workload import StepTrace
from repro.models import get_model
from repro.profiler import ProfileDatabase
from repro.scenario import AutoscalerSpec


def run_scenario(seed: int, steps, spares: int, threshold: int):
    """Drive a bursty stepped workload under the hybrid predictive policy.

    Returns (platform, scheduler, samples, promotions_timeline).
    """
    platform = FaSTGShare.build(nodes=2, sharing="fast", seed=seed)
    platform.gateway.promote_load_threshold = threshold
    platform.register_function("fn", model="resnet50", model_sharing=True, min_replicas=0)
    db = ProfileDatabase.analytic({"fn": get_model("resnet50")})
    from repro.autoscaler.policy import PreWarmPolicy

    scheduler = platform.start_autoscaler(
        db,
        AutoscalerSpec(policy="hybrid", interval=1.0, headroom=1.10, scale_down_cooldown=6.0),
        prewarm=PreWarmPolicy(spares=spares),
    )
    workload = StepTrace(steps, poisson=True)
    OpenLoopGenerator(platform.engine, platform.gateway, "fn", workload)

    samples: list[dict] = []
    violations: list[str] = []

    def sample() -> None:
        node_free = {}
        for node in platform.cluster.nodes:
            mem = node.device.memory
            if mem.free_mb < -1e-6:
                violations.append(f"{node.name}: memory over-commit {mem.free_mb}")
            node_free[node.name] = mem.free_mb
        for replica in platform.controllers["fn"].replicas.values():
            if not replica.warm_idle:
                continue
            node = platform.cluster.node(replica.pod.node_name)
            entry = node.backend.entries.get(replica.pod.pod_id)
            assert entry is not None, "warm pod missing from backend table"
            if entry.holding or entry.token is not None:
                violations.append(f"{replica.pod.pod_id} holds a token while warm")
            if entry.q_used != 0.0 or entry.tokens_granted != 0:
                violations.append(f"{replica.pod.pod_id} consumed quota while warm")
            if node.backend.adapter.holds(replica.pod.pod_id):
                violations.append(f"{replica.pod.pod_id} holds SM allocation while warm")
        samples.append(node_free)
        if platform.engine.now < workload.duration + 20.0:
            platform.engine.schedule(0.5, sample)

    platform.engine.schedule(0.5, sample)
    platform.engine.run(until=workload.duration + 25.0)
    promotions = platform.gateway.promotions
    events = [
        (round(e.time, 6), e.function, e.action, e.reason)
        for e in scheduler.predictive.events
    ]
    return violations, samples, promotions, events


SCENARIOS = st.tuples(
    st.integers(min_value=0, max_value=2**20),
    st.lists(
        st.tuples(
            st.floats(min_value=2.0, max_value=6.0),
            st.sampled_from([0.0, 5.0, 40.0, 90.0]),
        ),
        min_size=2,
        max_size=4,
    ),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=4),
)


@settings(max_examples=8, deadline=None)
@given(SCENARIOS)
def test_warm_pods_hold_no_quota_and_memory_never_overcommits(scenario):
    seed, steps, spares, threshold = scenario
    violations, samples, _, _ = run_scenario(seed, steps, spares, threshold)
    assert violations == []
    assert samples, "sampler never ran"


@settings(max_examples=4, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**20),
    st.integers(min_value=1, max_value=3),
)
def test_promotion_sequence_is_deterministic_under_seeded_replay(seed, threshold):
    steps = [(4.0, 40.0), (5.0, 0.0), (4.0, 60.0), (5.0, 0.0)]
    first = run_scenario(seed, steps, 1, threshold)
    second = run_scenario(seed, steps, 1, threshold)
    assert first[2] == second[2]  # promotion counts identical
    assert first[3] == second[3]  # prewarm/retire event timelines identical
