"""Tests for live migration and background defragmentation (repro.migrate).

Three layers, matching the subsystem's own:

* **planning** — fragmentation is a well-behaved signal (0 on empty/packed
  clusters, higher for scattered-free-space states) and
  :meth:`plan_migrations` is deterministic, budget-bounded, plans only
  full evacuations, and never vacates a GPU it is migrating onto;
* **the primitive** — a directed :meth:`MigrationController.migrate` call
  lands the pod on the destination, drains the source through
  ``MIGRATING`` to ``TERMINATED``, and releases the source rectangle only
  after the drain;
* **end to end** — a fragmented spread fleet with the defragmenter on
  completes migrations while (a) never over-committing any GPU at any
  sampled instant (rectangles in bounds, pairwise disjoint, area within
  capacity) and (b) losing zero requests across handoffs.
"""

from __future__ import annotations

import pytest

from repro import FaSTGShare
from repro.faas.loadgen import OpenLoopGenerator
from repro.faas.workload import StepTrace
from repro.k8s.objects import ALLOWED_TRANSITIONS, PodPhase
from repro.migrate import MigrationController
from repro.models import get_model
from repro.profiler import ProfileDatabase
from repro.scenario.spec import AutoscalerSpec, DefragSpec, ScenarioError
from repro.scheduler.mra import MaximalRectanglesScheduler
from repro.sweep.spec import SweepAxis, apply_axis


# ---------------------------------------------------------------------------
# Fragmentation metric
# ---------------------------------------------------------------------------


def test_empty_cluster_fragmentation_is_zero():
    sched = MaximalRectanglesScheduler(["node0", "node1"])
    assert sched.cluster_fragmentation() == 0.0
    assert sched.fragmentation_by_node() == {"node0": 0.0, "node1": 0.0}


def test_fragmentation_in_unit_interval():
    sched = MaximalRectanglesScheduler(["node0", "node1", "node2"])
    for i, node in enumerate(["node0", "node1", "node2", "node0", "node1"]):
        sched.bind_at(f"pod{i}", node, 30.0, 30.0)
    for value in sched.fragmentation_by_node().values():
        assert 0.0 <= value <= 1.0
    assert 0.0 <= sched.cluster_fragmentation() <= 1.0


def test_spread_more_fragmented_than_packed():
    """One pod per GPU scatters free space; the same pods packed on one
    GPU leave whole-GPU rectangles free — lower cluster fragmentation."""
    spread = MaximalRectanglesScheduler(["node0", "node1", "node2"])
    packed = MaximalRectanglesScheduler(["node0", "node1", "node2"])
    for i in range(3):
        spread.bind_at(f"pod{i}", f"node{i}", 30.0, 30.0)
        packed.bind_at(f"pod{i}", "node0", 30.0, 30.0)
    assert spread.cluster_fragmentation() > packed.cluster_fragmentation()


# ---------------------------------------------------------------------------
# Migration planning
# ---------------------------------------------------------------------------


def _scattered() -> MaximalRectanglesScheduler:
    sched = MaximalRectanglesScheduler(["node0", "node1", "node2"])
    for i in range(3):
        sched.bind_at(f"pod{i}", f"node{i}", 30.0, 30.0)
    return sched


def test_plan_consolidates_scattered_pods():
    moves = _scattered().plan_migrations(max_moves=2)
    assert len(moves) == 2
    assert {m.src for m in moves} != {m.dst for m in moves}
    # Receiving GPUs are never themselves vacated by the same batch.
    assert not ({m.src for m in moves} & {m.dst for m in moves})
    for move in moves:
        assert move.src != move.dst
        assert move.w == move.h == 30.0


def test_plan_targets_lie_in_destination_free_space():
    sched = _scattered()
    moves = sched.plan_migrations(max_moves=2)
    assert moves
    # The first target is literally a free rectangle of its destination;
    # later targets reflect earlier in-batch placements, so they are only
    # guaranteed to lie inside the destination's current free space.
    first = moves[0]
    assert any(first.target == rect for rect in sched.gpus[first.dst].free)
    for move in moves:
        assert any(rect.contains(move.target) for rect in sched.gpus[move.dst].free)


def test_plan_is_deterministic_and_read_only():
    sched = _scattered()
    before = {n: list(g.free) for n, g in sched.gpus.items()}
    assert sched.plan_migrations(max_moves=3) == sched.plan_migrations(max_moves=3)
    assert {n: list(g.free) for n, g in sched.gpus.items()} == before


def test_plan_respects_move_budget():
    assert len(_scattered().plan_migrations(max_moves=1)) == 1
    assert _scattered().plan_migrations(max_moves=0) == []


def test_plan_only_full_evacuations():
    """A node whose pods exceed the remaining budget is skipped outright —
    partial evacuations pay migration cost without releasing a GPU."""
    sched = MaximalRectanglesScheduler(["node0", "node1", "node2"])
    sched.bind_at("a", "node0", 20.0, 20.0)
    sched.bind_at("b", "node0", 20.0, 20.0)
    sched.bind_at("c", "node1", 30.0, 30.0)
    moves = sched.plan_migrations(max_moves=1)
    # node0 needs 2 moves > budget 1; node1's single pod fits the budget.
    assert [m.pod_id for m in moves] == ["c"]


def test_plan_movable_veto_blocks_sources():
    assert _scattered().plan_migrations(2, movable=lambda pid: False) == []


def test_plan_allowed_veto_blocks_destinations():
    assert _scattered().plan_migrations(2, allowed=lambda pid, node: False) == []


def test_plan_single_node_has_nowhere_to_go():
    sched = MaximalRectanglesScheduler(["node0"])
    sched.bind_at("pod0", "node0", 30.0, 30.0)
    assert sched.plan_migrations(max_moves=4) == []


# ---------------------------------------------------------------------------
# MIGRATING in the lifecycle table
# ---------------------------------------------------------------------------


def test_migrating_edges_in_transition_table():
    assert PodPhase.MIGRATING in ALLOWED_TRANSITIONS[PodPhase.RUNNING]
    assert PodPhase.MIGRATING in ALLOWED_TRANSITIONS[PodPhase.WARM_IDLE]
    # Abort resumes serving; completion drains through TERMINATING.
    assert ALLOWED_TRANSITIONS[PodPhase.MIGRATING] == frozenset(
        {PodPhase.RUNNING, PodPhase.TERMINATING}
    )
    # Only live (serving or parked-warm) pods ever migrate.
    sources = {
        phase
        for phase, targets in ALLOWED_TRANSITIONS.items()
        if PodPhase.MIGRATING in targets
    }
    assert sources == {PodPhase.RUNNING, PodPhase.WARM_IDLE}


# ---------------------------------------------------------------------------
# DefragSpec and the sweep axis
# ---------------------------------------------------------------------------


def test_defrag_spec_validation():
    DefragSpec(threshold=0.3, max_moves_per_tick=4)  # ok
    for bad in (0.0, 1.0, -0.5, 7.0):
        with pytest.raises(ScenarioError):
            DefragSpec(threshold=bad)
    with pytest.raises(ScenarioError):
        DefragSpec(max_moves_per_tick=0)


def test_defrag_spec_round_trip():
    assert DefragSpec().to_dict() == {}
    spec = DefragSpec(threshold=0.25, max_moves_per_tick=3)
    assert DefragSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ScenarioError):
        DefragSpec.from_dict({"treshold": 0.25})


def test_defrag_axis_validation():
    from repro.sweep.spec import SweepError

    SweepAxis(axis="defrag", values=(None, 0.3, 0.5))  # ok, null = off
    for bad in ((0.0,), (1.5,), ("on",), (True,)):
        with pytest.raises(SweepError):
            SweepAxis(axis="defrag", values=bad)


def test_defrag_axis_application():
    from repro.experiments import migrate_bench

    base = migrate_bench.base_scenario(
        migrate_bench.fragmented_fleet(2),
        ("V100", "V100"),
        seed=1,
        burst=(2.0, 2.0),
        tail=(2.0, 0.5),
    )
    assert base.cluster.defrag is None
    on = apply_axis(base, "defrag", 0.4)
    assert on.cluster.defrag == DefragSpec(threshold=0.4)
    assert apply_axis(on, "defrag", None).cluster.defrag is None


# ---------------------------------------------------------------------------
# The migration primitive, driven directly
# ---------------------------------------------------------------------------


def _platform_with_migrator(nodes: int = 2, seed: int = 9):
    platform = FaSTGShare.build(nodes=nodes, sharing="fast", seed=seed)
    platform.register_function("fn", model="resnet50")
    db = ProfileDatabase.analytic({"fn": get_model("resnet50")})
    platform.start_autoscaler(
        db, AutoscalerSpec(interval=1.0, headroom=1.10, scale_down_cooldown=6.0)
    )
    migrator = MigrationController(
        platform.engine,
        platform.cluster,
        platform.gateway,
        platform.controllers,
        placement=platform.scheduler.placement,
    )
    # A short burst makes the autoscaler place at least one pod.
    workload = StepTrace([(5.0, 20.0)], poisson=False)
    OpenLoopGenerator(platform.engine, platform.gateway, "fn", workload)
    platform.engine.run(until=8.0)
    return platform, migrator


def test_directed_migration_end_to_end():
    platform, migrator = _platform_with_migrator()
    placement = platform.scheduler.placement
    src_pod = next(
        pid
        for pid in platform.controllers["fn"].replicas
        if placement.node_of(pid) is not None
    )
    src_node = placement.node_of(src_pod)
    dst_node = next(n for n in placement.gpus if n != src_node)

    src = platform.cluster.pods[src_pod]  # evicted pods leave cluster.pods
    proc = migrator.migrate("fn", src_pod, dst_node)
    assert proc is not None
    # Make-before-break: the destination rectangle is bound and the source
    # is MIGRATING before any simulated time passes.
    record = migrator.records[-1]
    assert placement.node_of(record.dst_pod) == dst_node
    assert src.phase is PodPhase.MIGRATING
    assert migrator.in_flight == 1
    assert not migrator.migratable(src_pod)  # no double-migration

    platform.engine.run(until=platform.engine.now + 30.0)
    assert record.outcome == "completed"
    assert migrator.completed == 1 and migrator.aborted == 0
    assert migrator.in_flight == 0
    # Source fully released: rectangle unbound, pod drained to TERMINATED
    # through the MIGRATING edge.
    assert placement.node_of(src_pod) is None
    assert src.phase is PodPhase.TERMINATED
    assert any(dst is PodPhase.MIGRATING for _, dst, _ in src.transitions)
    # Destination serves (or parks warm) on its new node.
    dst = platform.cluster.pods[record.dst_pod]
    assert dst.phase in (PodPhase.RUNNING, PodPhase.WARM_IDLE)
    assert dst.node_name == dst_node


def test_migrate_rejects_infeasible_moves():
    platform, migrator = _platform_with_migrator()
    placement = platform.scheduler.placement
    src_pod = next(
        pid
        for pid in platform.controllers["fn"].replicas
        if placement.node_of(pid) is not None
    )
    src_node = placement.node_of(src_pod)
    assert migrator.migrate("fn", src_pod, src_node) is None  # same node
    assert migrator.migrate("fn", "no-such-pod", "node1") is None
    assert migrator.migrate("no-such-fn", src_pod, "node1") is None
    assert migrator.started == 0 and migrator.in_flight == 0


# ---------------------------------------------------------------------------
# End to end: defragmenter on a fragmented spread fleet
# ---------------------------------------------------------------------------


def test_defragmenter_migrates_without_overcommit_or_request_loss():
    """Spread placement scatters a burst fleet one replica per GPU; the long
    tail leaves the cluster fragmented and the defragmenter consolidates it.
    Sampled every 100 ms: every bound rectangle stays inside its GPU,
    rectangles never overlap, and allocated area never exceeds capacity —
    i.e. make-before-break never over-commits.  And every submitted request
    completes: handoffs lose nothing."""
    platform = FaSTGShare.build(
        nodes=3,
        sharing="fast",
        seed=13,
        placement="spread",
        defrag=DefragSpec(threshold=0.3, max_moves_per_tick=2),
    )
    names = [f"fn{i}" for i in range(4)]
    for name in names:
        platform.register_function(name, model="resnet50", min_replicas=0)
    db = ProfileDatabase.analytic({name: get_model("resnet50") for name in names})
    platform.start_autoscaler(
        db, AutoscalerSpec(policy="hybrid", interval=1.0, headroom=1.10, scale_down_cooldown=3.0)
    )
    assert platform.migrator is not None and platform.defragmenter is not None

    workload = StepTrace([(6.0, 8.0), (24.0, 0.5)], poisson=True)
    for name in names:
        OpenLoopGenerator(platform.engine, platform.gateway, name, workload)

    placement = platform.scheduler.placement
    engine = platform.engine

    def check_invariants() -> None:
        for gpu in placement.gpus.values():
            assert gpu.used_area() <= gpu.width * gpu.height + 1e-6
            rects = list(gpu.placed.values())
            for i, a in enumerate(rects):
                assert a.x >= -1e-9 and a.y >= -1e-9
                assert a.x + a.w <= gpu.width + 1e-6
                assert a.y + a.h <= gpu.height + 1e-6
                for b in rects[i + 1 :]:
                    assert not a.intersects(b), f"overlap: {a} vs {b}"
        if engine.now < workload.duration + 15.0:
            engine.schedule(0.1, check_invariants)

    engine.schedule(0.1, check_invariants)
    engine.run(until=workload.duration + 30.0)

    assert platform.migrator.completed > 0, "fixture never triggered a migration"
    assert platform.migrator.in_flight == 0
    log = platform.gateway.log
    assert log.submitted > 0
    assert len(log.completed) == log.submitted, "requests lost across handoff"
    # Consolidation released GPUs: the tail fleet fits on fewer than the
    # burst peak ever held.
    assert placement.gpus_in_use() < 3
