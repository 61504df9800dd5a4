"""Unit tests for the Maximal Rectangles Algorithm."""

from __future__ import annotations

import pytest

from repro.scheduler import GPURectangleList, MaximalRectanglesScheduler, NoFitError, Rect


def test_initial_state_one_full_rect():
    gpu = GPURectangleList()
    assert gpu.free == [Rect(0, 0, 100, 100)]
    assert gpu.free_area() == 10000


def test_place_bottom_left_with_maximal_splits():
    gpu = GPURectangleList()
    rect = gpu.place("a", 40, 12)
    assert rect == Rect(0, 0, 40, 12)
    # Both maximal splits kept: right remainder full-height, top full-width.
    assert Rect(40, 0, 60, 100) in gpu.free
    assert Rect(0, 12, 100, 88) in gpu.free
    assert len(gpu.free) == 2


def test_fig11_packing_eight_pods_on_one_gpu():
    """Paper Fig. 11 workload: 4xResNet(40,12) + 2xRNNT(40,24) + 2xBERT(60,50)
    fits a single GPU under MRA (Σ area = 98.4%)."""
    gpu = GPURectangleList()
    gpu.place("bert-1", 60, 50)
    gpu.place("bert-2", 60, 50)
    for i in range(4):
        gpu.place(f"resnet-{i}", 40, 12)
    for i in range(2):
        gpu.place(f"rnnt-{i}", 40, 24)
    assert gpu.used_area() == pytest.approx(9840)
    # No placed rectangle overlaps another.
    placed = list(gpu.placed.values())
    for i, a in enumerate(placed):
        for b in placed[i + 1:]:
            assert not a.intersects(b), (a, b)


def test_free_rects_never_overlap_placed():
    gpu = GPURectangleList()
    for i, (w, h) in enumerate([(40, 12), (60, 50), (40, 24), (30, 30)]):
        gpu.place(f"p{i}", w, h)
        for free in gpu.free:
            for placed in gpu.placed.values():
                assert not free.intersects(placed), (free, placed)


def test_best_fit_minimises_area_gap():
    gpu = GPURectangleList()
    gpu.place("big", 60, 50)  # leaves (40x100 right) and (100x50 top) maximals
    # A 40x50 pod: right rect (40x100, area 4000) vs top (100x50, area 5000).
    best = gpu.best_fit(40, 50)
    assert best == Rect(60, 0, 40, 100)


def test_no_fit_raises():
    gpu = GPURectangleList()
    gpu.place("wall", 100, 60)
    with pytest.raises(NoFitError):
        gpu.place("too-tall", 10, 50)


def test_out_of_bounds_rejected():
    gpu = GPURectangleList()
    with pytest.raises(ValueError):
        gpu.place("w", 120, 10)
    with pytest.raises(ValueError):
        gpu.place("z", 10, 0)


def test_double_place_rejected():
    gpu = GPURectangleList()
    gpu.place("a", 10, 10)
    with pytest.raises(ValueError):
        gpu.place("a", 10, 10)


def test_remove_returns_rect_to_free_list():
    gpu = GPURectangleList()
    gpu.place("a", 40, 12)
    gpu.remove("a")
    assert gpu.placed == {}
    # Keep-restructure: the released rect is directly reusable.
    assert any(r.fits(40, 12) for r in gpu.free)
    again = gpu.place("a2", 40, 12)
    assert again == Rect(0, 0, 40, 12)


def test_remove_unknown_raises():
    with pytest.raises(KeyError):
        GPURectangleList().remove("ghost")


def test_restructure_triggers_on_threshold():
    gpu = GPURectangleList(restructure_threshold=4)
    for i in range(6):
        gpu.place(f"p{i}", 15, 15)
    for i in range(6):
        gpu.remove(f"p{i}")
    assert gpu.restructures >= 1
    # Empty GPU restructures back to the single full rectangle.
    assert gpu.free == [Rect(0, 0, 100, 100)]


def test_restructure_preserves_placements():
    gpu = GPURectangleList(restructure_threshold=3)
    gpu.place("keep1", 40, 40)
    gpu.place("keep2", 40, 40)
    for i in range(5):
        gpu.place(f"tmp{i}", 10, 10)
    for i in range(5):
        gpu.remove(f"tmp{i}")
    assert set(gpu.placed) == {"keep1", "keep2"}
    for free in gpu.free:
        for placed in gpu.placed.values():
            assert not free.intersects(placed)


def test_scheduler_prefers_occupied_gpus():
    scheduler = MaximalRectanglesScheduler(["node0", "node1"])
    scheduler.bind("a", 40, 12)
    # Second pod: node0's split rects have smaller area gaps than node1's
    # pristine 100x100, so packing concentrates (paper: prioritise GPUs that
    # already have resource rectangles).
    node = scheduler.bind("b", 40, 12)
    assert node == "node0"
    assert scheduler.gpus_in_use() == 1


def test_scheduler_spills_to_new_gpu_when_full():
    scheduler = MaximalRectanglesScheduler(["node0", "node1"])
    scheduler.bind("big1", 100, 60)
    scheduler.bind("big2", 100, 60)  # cannot fit on node0
    assert scheduler.gpus_in_use() == 2


def test_scheduler_no_fit_raises():
    scheduler = MaximalRectanglesScheduler(["node0"])
    scheduler.bind("a", 100, 60)
    with pytest.raises(NoFitError):
        scheduler.bind("b", 100, 60)


def test_scheduler_allowed_filter():
    scheduler = MaximalRectanglesScheduler(["node0", "node1"])
    node = scheduler.bind("a", 10, 10, allowed=lambda n: n == "node1")
    assert node == "node1"


def test_scheduler_unbind():
    scheduler = MaximalRectanglesScheduler(["node0"])
    scheduler.bind("a", 100, 60)
    assert scheduler.unbind("a") == "node0"
    scheduler.bind("b", 100, 60)  # space reclaimed
    with pytest.raises(KeyError):
        scheduler.unbind("a")


def test_utilized_area_by_node():
    scheduler = MaximalRectanglesScheduler(["node0", "node1"])
    scheduler.bind("a", 50, 50)
    shares = scheduler.utilized_area_by_node()
    assert shares["node0"] == pytest.approx(0.25)
    assert shares["node1"] == 0.0


def test_extent_cache_follows_every_free_list():
    """The widest and tallest free extents rule GPUs out of a search; a
    full-height pod leaves no full-width free rectangle, so the cache must
    follow place, remove, restructure and clone."""

    def extents(gpu):
        assert gpu.max_w == max(r.w for r in gpu.free)
        assert gpu.max_h == max(r.h for r in gpu.free)
        return gpu.max_w, gpu.max_h

    gpu = GPURectangleList()
    assert extents(gpu) == (100, 100)
    gpu.place("tall", 40, 100)
    assert extents(gpu) == (60, 100)
    gpu.place("wide", 60, 30)
    assert extents(gpu) == (60, 70)
    copy = gpu.clone()
    assert extents(copy) == (60, 70)
    copy.remove("wide")  # kept unmerged beside the strip above it
    assert extents(copy) == (60, 70)
    copy.restructure()
    assert extents(copy) == (60, 100)
    assert extents(gpu) == (60, 70)  # the copy's free list is its own
    assert not gpu.can_fit(60, 71)
    gpu.remove("tall")
    assert extents(gpu) == (60, 100)


def test_select_first_skips_a_shape_no_smaller_than_a_miss():
    """After a shape misses, every changed GPU has been restructured, so a
    later shape at least as wide and as tall cannot fit: it costs no probe."""
    ledger = MaximalRectanglesScheduler(["node0"])
    ledger.bind("a", 60, 100)
    probed = []
    select_node = ledger.select_node

    def counted(w, h, allowed=None):
        probed.append((w, h))
        return select_node(w, h, allowed)

    ledger.select_node = counted
    index, node, rect = ledger.select_first([(50, 50), (50, 60), (40, 100)])
    assert (index, node, rect.w, rect.h) == (2, "node0", 40, 100)
    assert probed == [(50, 50), (40, 100)]
