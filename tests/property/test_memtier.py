"""Property tests for the memory tier (fabric + HOST_RESIDENT lifecycle).

Whatever the transfer schedule and traffic shape:

* the transfer fabric conserves bandwidth — instantaneous per-transfer
  rates always sum to at most the link rate (exactly the link rate while
  anything is in flight), and every admitted megabyte is delivered;
* completion order is deterministic — replaying the same schedule yields
  bit-identical completion times and ordering;
* GPU memory is never over-committed across promote/demote/evict races,
  and neither is the host-RAM ledger;
* a ``HOST_RESIDENT`` pod has **zero** GPU footprint: no container, no
  backend row, no device-memory hold — only a host-ledger entry;
* under a fixed seed the demote/swap-in/evict event timeline is
  bit-identical between replays.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import FaSTGShare
from repro.faas.loadgen import OpenLoopGenerator
from repro.faas.workload import StepTrace
from repro.k8s.objects import PodPhase
from repro.memtier.fabric import TransferFabric
from repro.models import get_model
from repro.profiler import ProfileDatabase
from repro.scenario import AutoscalerSpec
from repro.sim import Engine

# ---------------------------------------------------------------------------
# Fabric: conservation + determinism
# ---------------------------------------------------------------------------

TRANSFER_SCHEDULES = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=2.0),  # admission delay
        st.floats(min_value=0.5, max_value=4096.0),  # size (MB)
    ),
    min_size=1,
    max_size=12,
)


def drive_fabric(schedule, gbps):
    """Admit the schedule, sampling rates at every membership change.

    Returns (rate_samples, completions) where completions is the ordered
    list of (engine_time, transfer_index).
    """
    engine = Engine()
    fabric = TransferFabric(engine, gbps=gbps)
    samples: list[list[float]] = []
    completions: list[tuple[float, int]] = []

    def admit(index: int, mb: float) -> None:
        done = fabric.transfer(mb)
        samples.append(fabric.rates_mb_per_s())
        done.add_callback(
            lambda _e, i=index: (
                completions.append((round(engine.now, 9), i)),
                samples.append(fabric.rates_mb_per_s()),
            )
        )

    at = 0.0
    for index, (delay, mb) in enumerate(schedule):
        at += delay
        engine.schedule(at, lambda i=index, m=mb: admit(i, m))
    engine.run()
    return fabric, samples, completions


@settings(max_examples=30, deadline=None)
@given(TRANSFER_SCHEDULES, st.floats(min_value=1.0, max_value=64.0))
def test_fabric_conserves_bandwidth_and_delivers_everything(schedule, gbps):
    fabric, samples, completions = drive_fabric(schedule, gbps)
    link = gbps * 1024.0
    for rates in samples:
        assert sum(rates) <= link * (1.0 + 1e-9)
        if rates:  # work-conserving: a busy link runs at full rate
            assert abs(sum(rates) - link) <= link * 1e-9
    assert fabric.active_count == 0
    assert fabric.completed == len(schedule)
    assert len(completions) == len(schedule)
    expected_mb = sum(mb for _, mb in schedule)
    assert abs(fabric.transferred_mb - expected_mb) <= 1e-6 * max(expected_mb, 1.0)


@settings(max_examples=20, deadline=None)
@given(TRANSFER_SCHEDULES, st.floats(min_value=1.0, max_value=64.0))
def test_fabric_completion_order_is_deterministic(schedule, gbps):
    _, _, first = drive_fabric(schedule, gbps)
    _, _, second = drive_fabric(schedule, gbps)
    assert first == second


def test_fabric_estimate_is_exact_on_idle_link():
    engine = Engine()
    fabric = TransferFabric(engine, gbps=16.0)
    estimate = fabric.estimate_s(4096.0)
    done = fabric.transfer(4096.0)
    engine.run()
    assert done.ok
    assert abs(engine.now - estimate) <= 1e-9


def test_fabric_fair_share_slows_concurrent_transfers():
    # Two equal transfers admitted together take twice as long as one alone.
    engine = Engine()
    fabric = TransferFabric(engine, gbps=16.0)
    alone = fabric.estimate_s(1024.0)
    fabric.transfer(1024.0)
    second = fabric.transfer(1024.0)
    engine.run()
    assert second.ok
    assert abs(engine.now - 2.0 * alone) <= 1e-9


# ---------------------------------------------------------------------------
# End-to-end: promote/demote/evict races never over-commit either ledger
# ---------------------------------------------------------------------------


def run_memtier_scenario(seed: int, steps, warm_gap_s: float, keepalive_s: float):
    """Drive bursty traffic over two functions under the memtier policy.

    Aggressive knobs (small gaps) force frequent demote/promote/evict
    churn.  Returns (violations, samples, event_timeline).
    """
    from repro.memtier.policy import MemTierPolicy

    platform = FaSTGShare.build(
        nodes=2, sharing="fast", seed=seed, host_memory_mb=32768.0, fabric_gbps=16.0
    )
    platform.register_function("fn-a", model="resnet50", model_sharing=True, min_replicas=0)
    platform.register_function("fn-b", model="bert", model_sharing=True, min_replicas=0)
    db = ProfileDatabase.analytic(
        {"fn-a": get_model("resnet50"), "fn-b": get_model("bert")}
    )
    scheduler = platform.start_autoscaler(
        db,
        AutoscalerSpec(policy="memtier", interval=1.0, headroom=1.10, scale_down_cooldown=6.0),
        prewarm=MemTierPolicy(
            warm_gap_s=warm_gap_s,
            host_keepalive_s=keepalive_s,
            spare_keepalive_s=3.0,
        ),
    )
    workload = StepTrace(steps, poisson=True)
    OpenLoopGenerator(platform.engine, platform.gateway, "fn-a", workload)
    OpenLoopGenerator(platform.engine, platform.gateway, "fn-b", workload)

    violations: list[str] = []
    samples: list[int] = []

    def sample() -> None:
        parked_total = 0
        for node in platform.cluster.nodes:
            if node.device.memory.free_mb < -1e-6:
                violations.append(f"{node.name}: GPU memory over-commit")
            assert node.host_memory is not None
            if node.host_memory.free_mb < -1e-6:
                violations.append(f"{node.name}: host memory over-commit")
            rates = node.fabric.rates_mb_per_s()
            if sum(rates) > node.fabric.total_mb_per_s * (1.0 + 1e-9):
                violations.append(f"{node.name}: fabric over-committed")
        for name, controller in platform.controllers.items():
            for pod_id, pod in controller.parked.items():
                # A pod enters `parked` one zero-delay event before the
                # node-side teardown completes; the HOST_RESIDENT phase is
                # the authoritative zero-GPU-footprint signal.
                if pod.phase is not PodPhase.HOST_RESIDENT:
                    continue
                parked_total += 1
                node = platform.cluster.node(pod.node_name)
                if pod_id in node.containers:
                    violations.append(f"{pod_id}: parked but has a container")
                if pod_id in node.backend.entries:
                    violations.append(f"{pod_id}: parked but in backend table")
                if node.device.memory.owner_usage_mb(pod_id) > 0.0:
                    violations.append(f"{pod_id}: parked but holds GPU memory")
                if node.host_memory.owner_usage_mb(pod_id) <= 0.0:
                    violations.append(f"{pod_id}: parked without a host-RAM hold")
                if pod_id in controller.replicas:
                    violations.append(f"{pod_id}: parked and live at once")
        samples.append(parked_total)
        if platform.engine.now < workload.duration + 20.0:
            platform.engine.schedule(0.5, sample)

    platform.engine.schedule(0.5, sample)
    platform.engine.run(until=workload.duration + 25.0)
    events = [
        (round(e.time, 6), e.function, e.action, e.reason)
        for e in scheduler.predictive.events
    ]
    return violations, samples, events


MEMTIER_SCENARIOS = st.tuples(
    st.integers(min_value=0, max_value=2**20),
    st.lists(
        st.tuples(
            st.floats(min_value=2.0, max_value=5.0),
            st.sampled_from([0.0, 4.0, 30.0]),
        ),
        min_size=2,
        max_size=4,
    ),
    st.floats(min_value=1.0, max_value=10.0),  # warm_gap_s
    st.floats(min_value=5.0, max_value=40.0),  # host_keepalive_s
)


@settings(max_examples=6, deadline=None)
@given(MEMTIER_SCENARIOS)
def test_memory_never_overcommits_and_parked_pods_have_zero_gpu_footprint(scenario):
    seed, steps, warm_gap_s, keepalive_s = scenario
    violations, samples, _ = run_memtier_scenario(seed, steps, warm_gap_s, keepalive_s)
    assert violations == []
    assert samples, "sampler never ran"


@settings(max_examples=4, deadline=None)
@given(st.integers(min_value=0, max_value=2**20))
def test_swap_event_timeline_is_deterministic_under_seeded_replay(seed):
    steps = [(4.0, 30.0), (5.0, 0.0), (4.0, 30.0), (6.0, 0.0)]
    first = run_memtier_scenario(seed, steps, 2.0, 12.0)
    second = run_memtier_scenario(seed, steps, 2.0, 12.0)
    assert first[2] == second[2]
