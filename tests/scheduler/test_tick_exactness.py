"""Exactness of the control tick's memo and dirty-GPU restructuring."""

from __future__ import annotations

from repro.models import get_model
from repro.profiler import ProfileDatabase
from repro.profiler.database import ProfilePoint
from repro.scheduler import GPURectangleList, MaximalRectanglesScheduler, Rect
from repro.scheduler.autoscale import HeuristicScaler


def counting_points(monkeypatch, db: ProfileDatabase) -> list[str]:
    """Record every ``db.points`` call (one per candidate-set computation)."""
    calls: list[str] = []
    points = db.points

    def counted(function: str):
        calls.append(function)
        return points(function)

    monkeypatch.setattr(db, "points", counted)
    return calls


# -- memoized candidate set and p_eff ------------------------------------------------
def test_candidate_set_and_p_eff_computed_once_per_function(monkeypatch):
    models = {"a": get_model("resnet50"), "b": get_model("bert")}
    db = ProfileDatabase.analytic(models)
    scaler = HeuristicScaler(db, slo_ms={"a": 100.0, "b": 250.0})
    # The reference answers, computed before any call is counted.
    reference = HeuristicScaler(db, slo_ms={"a": 100.0, "b": 250.0})
    for name in models:
        reference.p_eff(name)
    calls = counting_points(monkeypatch, db)
    for _ in range(5):
        for name in models:
            assert scaler.p_eff(name) == reference.p_eff(name)
            assert scaler.candidate_points(name) == reference.candidate_points(name)
    assert sorted(calls) == ["a", "b"]


def test_profile_insert_expires_the_memo(monkeypatch):
    db = ProfileDatabase.analytic({"fn": get_model("resnet50")})
    scaler = HeuristicScaler(db, slo_ms={"fn": 250.0})
    before = scaler.p_eff("fn")
    calls = counting_points(monkeypatch, db)
    # A fast, very efficient point measured later by the profiler.
    better = ProfilePoint("fn", 6.0, 0.2, 10 * before.rpr * 6.0 * 0.2, p50_ms=1.0, p95_ms=1.0)
    db.insert(better)
    assert scaler.p_eff("fn") == better
    assert better in scaler.candidate_points("fn")
    assert scaler.p_eff("fn") == better
    assert calls == ["fn"]  # recomputed once after the insert, then memoized


# -- restructure only dirty GPUs --------------------------------------------------
def fragmented_gpu() -> GPURectangleList:
    gpu = GPURectangleList(restructure_threshold=64)
    for i in range(6):
        gpu.place(f"p{i}", 15, 30)
    for i in (1, 3):
        gpu.remove(f"p{i}")
    return gpu


def test_clean_flag_follows_mutations():
    gpu = GPURectangleList()
    assert gpu.clean  # the initial free list is what a restructure builds
    gpu.place("a", 40, 40)
    assert not gpu.clean
    gpu.restructure()
    assert gpu.clean
    gpu.place("b", 20, 20)
    gpu.remove("b")
    assert not gpu.clean
    assert gpu.clone().clean is gpu.clean
    gpu.remove("a")  # emptied: re-initialised to the full rectangle
    assert gpu.clean and gpu.free == [Rect(0, 0, 100, 100)]


def test_restructure_on_clean_gpu_leaves_free_unchanged():
    gpu = fragmented_gpu()
    gpu.restructure()
    assert gpu.clean
    rebuilt = list(gpu.free)
    gpu.restructure()
    assert gpu.free == rebuilt


class AlwaysDirty(GPURectangleList):
    """The pre-flag behaviour: every GPU counts as changed."""

    clean = property(lambda self: False, lambda self, value: None)


def make_cluster(gpu_type: type = GPURectangleList) -> MaximalRectanglesScheduler:
    cluster = MaximalRectanglesScheduler(["n0", "n1", "n2"])
    cluster.gpus = {name: gpu_type() for name in cluster.gpus}
    for name, gpu in cluster.gpus.items():
        for i in range(6):
            cluster.bind_at(f"{name}-p{i}", name, 15, 30)
        for i in (1, 3):
            cluster.unbind(f"{name}-p{i}")
        assert len(gpu.free) > 1 and not gpu.clean
    return cluster


def free_lists(cluster: MaximalRectanglesScheduler) -> dict[str, list[Rect]]:
    return {name: list(gpu.free) for name, gpu in cluster.gpus.items()}


def restructures(cluster: MaximalRectanglesScheduler) -> int:
    return sum(gpu.restructures for gpu in cluster.gpus.values())


def test_miss_on_all_clean_gpus_restructures_nothing(monkeypatch):
    cluster = make_cluster()
    assert cluster.select_node(100, 100) is None  # first miss restructures all
    assert all(gpu.clean for gpu in cluster.gpus.values())
    before = restructures(cluster)
    free = free_lists(cluster)
    selects = []
    select = cluster._select

    def counted(*args):
        selects.append(args)
        return select(*args)

    monkeypatch.setattr(cluster, "_select", counted)
    assert cluster.select_node(100, 100) is None
    assert restructures(cluster) == before
    assert len(selects) == 1  # no retry when nothing was restructured
    assert free_lists(cluster) == free


def test_dirty_only_retry_answers_like_restructure_all():
    shapes = [(100, 100), (30, 60), (45, 30), (100, 100), (30, 100), (60, 60)]
    fast, slow = make_cluster(), make_cluster(AlwaysDirty)
    for i, (w, h) in enumerate(shapes):
        answer = fast.select_node(w, h)
        assert answer == slow.select_node(w, h)
        if answer is not None:
            for cluster in (fast, slow):
                cluster.bind_at(f"x{i}", answer[0], w, h, target=answer[1])
        assert free_lists(fast) == free_lists(slow)
    assert restructures(fast) < restructures(slow)
