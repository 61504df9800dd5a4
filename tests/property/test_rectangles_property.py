"""Property-based tests of the MaxRects geometry (hypothesis)."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.scheduler import (
    PLACEMENT_POLICIES,
    GPURectangleList,
    MaximalRectanglesScheduler,
    NoFitError,
    Rect,
    prune_contained,
    subtract,
)

# Rectangle coordinates on the GPU's 100x100 resource space.
coords = st.floats(min_value=0.0, max_value=90.0)
extents = st.floats(min_value=1.0, max_value=100.0)


@st.composite
def rects(draw) -> Rect:
    x = draw(coords)
    y = draw(coords)
    w = draw(st.floats(min_value=1.0, max_value=100.0 - x))
    h = draw(st.floats(min_value=1.0, max_value=100.0 - y))
    return Rect(x, y, w, h)


@st.composite
def pod_sizes(draw) -> tuple[float, float]:
    return (draw(st.floats(min_value=5.0, max_value=100.0)),
            draw(st.floats(min_value=5.0, max_value=100.0)))


def sample_points(rect: Rect, n: int = 5):
    """Deterministic interior sample points of a rectangle."""
    for i in range(1, n + 1):
        frac = i / (n + 1)
        yield rect.x + frac * rect.w, rect.y + frac * rect.h


@given(free=rects(), placed=rects())
@settings(max_examples=80, deadline=None)
def test_subtract_pieces_stay_inside_free_and_outside_placed(free: Rect, placed: Rect):
    pieces = subtract(free, placed)
    for piece in pieces:
        assert free.contains(piece)
        assert not piece.intersects(placed)


@given(free=rects(), placed=rects())
@settings(max_examples=80, deadline=None)
def test_subtract_covers_all_remaining_points(free: Rect, placed: Rect):
    pieces = subtract(free, placed)
    for px, py in sample_points(free, 7):
        strictly_in_placed = (
            placed.x + 1e-9 < px < placed.right - 1e-9
            and placed.y + 1e-9 < py < placed.top - 1e-9
        )
        if not strictly_in_placed:
            assert any(p.contains_point(px, py) for p in pieces), (px, py)


@given(st.lists(rects(), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_prune_contained_is_containment_free_and_coverage_preserving(rect_list):
    kept = prune_contained(rect_list)
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            assert not a.contains(b) and not b.contains(a)
    # Every original rectangle's sample points stay covered.
    for original in rect_list:
        for px, py in sample_points(original, 3):
            assert any(k.contains_point(px, py) for k in kept)


@given(st.lists(pod_sizes(), min_size=1, max_size=20), st.data())
@settings(max_examples=60, deadline=None)
def test_gpu_rectangle_list_invariants_under_random_churn(sizes, data):
    """Place/remove churn preserves all geometric invariants."""
    gpu = GPURectangleList(restructure_threshold=8)
    live: list[str] = []
    for i, (w, h) in enumerate(sizes):
        pod_id = f"pod{i}"
        try:
            gpu.place(pod_id, w, h)
            live.append(pod_id)
        except NoFitError:
            pass
        # Occasionally remove a random live pod.
        if live and data.draw(st.booleans(), label=f"remove after {i}"):
            victim = data.draw(st.sampled_from(live), label="victim")
            gpu.remove(victim)
            live.remove(victim)

        placed = list(gpu.placed.values())
        # 1. placements pairwise disjoint and inside the GPU.
        bounds = Rect(0, 0, 100, 100)
        for j, a in enumerate(placed):
            assert bounds.contains(a)
            for b in placed[j + 1:]:
                assert not a.intersects(b)
        # 2. free rectangles never overlap placements.
        for free in gpu.free:
            assert bounds.contains(free)
            for a in placed:
                assert not free.intersects(a)
        # 3. completeness: unplaced sample points are covered by a free rect.
        for px, py in sample_points(bounds, 6):
            in_placed = any(
                a.x + 1e-9 < px < a.right - 1e-9 and a.y + 1e-9 < py < a.top - 1e-9
                for a in placed
            )
            if not in_placed:
                assert any(f.contains_point(px, py) for f in gpu.free), (px, py)


@given(st.lists(pod_sizes(), min_size=1, max_size=14))
@settings(max_examples=40, deadline=None)
def test_remove_then_replace_same_pod_always_fits(sizes):
    """Keep-restructure guarantees a removed pod's shape fits again."""
    gpu = GPURectangleList()
    placed_ids = []
    for i, (w, h) in enumerate(sizes):
        try:
            gpu.place(f"p{i}", w, h)
            placed_ids.append((f"p{i}", w, h))
        except NoFitError:
            pass
    if not placed_ids:
        return
    pod_id, w, h = placed_ids[len(placed_ids) // 2]
    gpu.remove(pod_id)
    gpu.place(pod_id + "-again", w, h)  # must not raise


# -- the extent cache and the first-fit query ----------------------------------------
def assert_extents(gpu: GPURectangleList) -> None:
    """The cached widest/tallest free extents equal a fresh max over ``free``."""
    assert gpu.max_w == max((r.w for r in gpu.free), default=0.0)
    assert gpu.max_h == max((r.h for r in gpu.free), default=0.0)


@given(st.lists(st.tuples(pod_sizes(), st.sampled_from("prsc")), min_size=1, max_size=30),
       st.data())
@settings(max_examples=60, deadline=None)
def test_extent_cache_tracks_every_free_list_change(ops, data):
    gpu = GPURectangleList(restructure_threshold=6)
    live: list[str] = []
    assert_extents(gpu)
    for i, ((w, h), op) in enumerate(ops):
        if op == "p":
            try:
                gpu.place(f"pod{i}", w, h)
                live.append(f"pod{i}")
            except NoFitError:
                pass
        elif op == "r" and live:
            victim = data.draw(st.sampled_from(live), label="victim")
            gpu.remove(victim)
            live.remove(victim)
        elif op == "s":
            gpu.restructure()
        else:
            copy = gpu.clone()
            assert_extents(copy)
            if copy.can_fit(w, h):
                copy.place(f"clone{i}", w, h)  # the copy moves on alone
                assert_extents(copy)
        assert_extents(gpu)


NODES = ("n0", "n1", "n2", "n3")


@st.composite
def ledgers(draw) -> MaximalRectanglesScheduler:
    """A cluster ledger after random binds and unbinds, with some GPUs left
    changed since their last restructure."""
    nodes = NODES[: draw(st.integers(min_value=1, max_value=len(NODES)))]
    ledger = MaximalRectanglesScheduler(
        nodes,
        policy=draw(st.sampled_from(PLACEMENT_POLICIES)),
        node_factors={name: draw(st.sampled_from([0.5, 1.0, 2.0])) for name in nodes},
    )
    live: list[str] = []
    for i, (w, h) in enumerate(draw(st.lists(pod_sizes(), max_size=24))):
        node = draw(st.sampled_from(nodes))
        if ledger.bind_at(f"p{i}", node, w, h, require_fit=False) is not None:
            live.append(f"p{i}")
        if live and draw(st.integers(min_value=0, max_value=2)) == 0:
            victim = draw(st.sampled_from(live))
            ledger.unbind(victim)
            live.remove(victim)
    return ledger


def copy_ledger(ledger: MaximalRectanglesScheduler) -> MaximalRectanglesScheduler:
    copy = MaximalRectanglesScheduler(list(ledger.gpus), ledger.policy, ledger.node_factors)
    copy.gpus = {name: gpu.clone() for name, gpu in ledger.gpus.items()}
    return copy


def log_restructures(ledger: MaximalRectanglesScheduler) -> list[str]:
    """Record, in order, which GPUs restructure."""
    log: list[str] = []
    for name, gpu in ledger.gpus.items():
        restructure = gpu.restructure

        def logged(_name=name, _restructure=restructure):
            log.append(_name)
            _restructure()

        gpu.restructure = logged
    return log


def reference_select_node(ledger, w, h, allowed):
    """``select_node`` before the extent check: probe every allowed GPU's
    free list; on a cluster-wide miss restructure the changed GPUs, retry."""

    def select():
        best, best_key = None, None
        for name, gpu in ledger.gpus.items():
            if not allowed(name):
                continue
            rect = gpu.best_fit(w, h)
            if rect is None:
                continue
            key = ledger._score(name, gpu, rect, w, h)
            if best_key is None or key < best_key:
                best, best_key = (name, rect), key
        return best

    best = select()
    if best is None:
        dirty = False
        for gpu in ledger.gpus.values():
            if len(gpu.free) > 1 and not gpu.clean:
                gpu.restructure()
                dirty = True
        if dirty:
            best = select()
    return best


@given(
    ledger=ledgers(),
    shapes=st.lists(pod_sizes(), min_size=1, max_size=5),
    vetoed=st.sets(st.sampled_from(NODES)),
    used_nodes_only=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_select_first_matches_a_select_node_loop(ledger, shapes, vetoed, used_nodes_only):
    """The one-pass query makes the choice a loop of pre-extent-check
    ``select_node`` calls makes, one per shape until one fits, and
    restructures the same GPUs in the same order, asking each node's
    veto at most once."""
    reference = copy_ledger(ledger)

    def veto_for(target, asked):
        def allowed(name):
            asked.append(name)
            if used_nodes_only and not target.gpus[name].placed:
                return False
            return name not in vetoed  # e.g. no GPU memory left there

        return allowed

    expected_log = log_restructures(reference)
    expected = None
    allowed = veto_for(reference, [])
    for index, (w, h) in enumerate(shapes):
        choice = reference_select_node(reference, w, h, allowed)
        if choice is not None:
            expected = (index, *choice)
            break

    log = log_restructures(ledger)
    asked: list[str] = []
    assert ledger.select_first(shapes, allowed=veto_for(ledger, asked)) == expected
    assert log == expected_log
    assert len(asked) == len(set(asked))
    for name, gpu in ledger.gpus.items():
        assert gpu.free == reference.gpus[name].free
        assert_extents(gpu)
