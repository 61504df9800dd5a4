"""The Maximal Rectangles Algorithm (paper Algorithm 2).

Each GPU keeps a list of (mutually overlapping, maximal) free rectangles.
Placing a pod:

1. **Best matching** — globally across GPUs, pick the free rectangle that
   fits the pod with the minimum ``Area(R) − Area(F)`` difference (the
   "secondCores" measure).  Note the paper's constraint line reads
   ``w_R ≤ w_F``; it must be ``≥`` for the rectangle to accommodate the pod —
   we implement the evident intent.
2. **Place** at the rectangle's bottom-left; keep the two *maximal* splits
   (full-height right remainder, full-width top remainder).
3. **Intersection update** — every other free rectangle overlapping the
   placed pod is subdivided into its maximal complements.
4. **Prune** contained rectangles.

Reclamation follows the "keep-restructure" policy: a removed pod's rectangle
goes straight back on the free list (cheap reuse for re-scaling functions);
once the list exceeds a threshold the whole GPU is rebuilt from the still-
placed pods, curing accumulated fragmentation.
"""

from __future__ import annotations

import dataclasses
import functools
import typing as _t

from repro.scheduler.rectangles import EPS, Rect, prune_contained, subtract

#: Default W × H: 100% time quota × 100% SMs.
GPU_W = 100.0
GPU_H = 100.0


class NoFitError(RuntimeError):
    """No free rectangle can fit the pod — "a new GPU required" (paper)."""


class GPURectangleList:
    """Free/placed rectangle bookkeeping for one GPU."""

    def __init__(self, width: float = GPU_W, height: float = GPU_H,
                 restructure_threshold: int = 24):
        if width <= 0 or height <= 0:
            raise ValueError("GPU rectangle must have positive extent")
        if restructure_threshold < 1:
            raise ValueError("restructure threshold must be >= 1")
        self.width = width
        self.height = height
        self.restructure_threshold = restructure_threshold
        self.free = [Rect(0.0, 0.0, width, height)]
        self.placed: dict[str, Rect] = {}
        self.restructures = 0
        #: True while ``free`` equals what :meth:`restructure` would build
        #: (a pure function of ``placed``): restructuring it again is a no-op.
        self.clean = True

    @property
    def free(self) -> list[Rect]:
        """The free rectangles (maximal, possibly overlapping)."""
        return self._free

    @free.setter
    def free(self, rects: list[Rect]) -> None:
        # Every replacement of the free list refreshes the extent cache:
        # the widest and the tallest free rectangle bound any pod that fits.
        self._free = rects
        self.max_w = max((r.w for r in rects), default=0.0)
        self.max_h = max((r.h for r in rects), default=0.0)

    # -- queries ---------------------------------------------------------------
    def used_area(self) -> float:
        return sum(r.area for r in self.placed.values())

    def free_area(self) -> float:
        return self.width * self.height - self.used_area()

    def largest_free_area(self) -> float:
        """Area of the largest single free rectangle (0 on a full GPU).

        Computed over the *current* free list — the space placement actually
        sees, unmerged strips included — so the derived fragmentation signal
        tracks what would really no-fit, not an idealized geometry.
        """
        return max((r.area for r in self.free), default=0.0)

    def fragmentation(self) -> float:
        """Free-space fragmentation: 1 − largest-free-rect / total-free.

        0.0 means all free space is one contiguous rectangle (or the GPU is
        effectively full — nothing to fragment); values near 1.0 mean the
        free area is shredded into slivers no single pod can use.
        """
        free = self.free_area()
        if free <= EPS:
            return 0.0
        return max(0.0, 1.0 - self.largest_free_area() / free)

    def clone(self) -> "GPURectangleList":
        """Independent copy for what-if packing (Rects are immutable)."""
        other = GPURectangleList.__new__(GPURectangleList)
        other.width = self.width
        other.height = self.height
        other.restructure_threshold = self.restructure_threshold
        other._free = list(self._free)
        other.max_w = self.max_w
        other.max_h = self.max_h
        other.placed = dict(self.placed)
        other.restructures = self.restructures
        other.clean = self.clean
        return other

    def best_fit(self, w: float, h: float) -> Rect | None:
        """Minimum-area-difference free rectangle that fits (w, h)."""
        best: Rect | None = None
        best_key: tuple[float, float, float] | None = None
        for rect in self.free:
            if not rect.fits(w, h):
                continue
            # Area difference first; (x, y) tie-break keeps packing
            # bottom-left-biased and deterministic.
            key = (rect.area - w * h, rect.x, rect.y)
            if best_key is None or key < best_key:
                best, best_key = rect, key
        return best

    def can_fit(self, w: float, h: float) -> bool:
        return self.best_fit(w, h) is not None

    # -- mutation -----------------------------------------------------------------
    def place(self, pod_id: str, w: float, h: float, target: Rect | None = None) -> Rect:
        """Place a (w, h) pod; returns its bound rectangle."""
        if pod_id in self.placed:
            raise ValueError(f"pod {pod_id} already placed")
        if w <= 0 or h <= 0 or w > self.width + EPS or h > self.height + EPS:
            raise ValueError(f"pod rectangle ({w}, {h}) outside GPU bounds")
        rect = target if target is not None else self.best_fit(w, h)
        if rect is None:
            raise NoFitError(f"no free rectangle fits ({w}, {h})")
        if rect not in self.free:
            raise ValueError("target rectangle is not in the free list")
        # PlaceAndNewJointRect, "BottomLeft": pod at the rect's origin, keep
        # both maximal splits of the chosen rectangle.
        pod_rect = Rect(rect.x, rect.y, w, h)
        splits = []
        if rect.w - w > EPS:
            splits.append(Rect(rect.x + w, rect.y, rect.w - w, rect.h))
        if rect.h - h > EPS:
            splits.append(Rect(rect.x, rect.y + h, rect.w, rect.h - h))
        updated = [r for r in self.free if r is not rect] + splits
        # Intersection update: subdivide every free rect overlapping the pod.
        subdivided: list[Rect] = []
        for free_rect in updated:
            if free_rect.intersects(pod_rect):
                subdivided.extend(subtract(free_rect, pod_rect))
            else:
                subdivided.append(free_rect)
        self.free = prune_contained(subdivided)
        self.placed[pod_id] = pod_rect
        self.clean = False
        return pod_rect

    def remove(self, pod_id: str) -> Rect:
        """Release a pod's rectangle (keep-restructure policy)."""
        rect = self.placed.pop(pod_id, None)
        if rect is None:
            raise KeyError(f"pod {pod_id} is not placed here")
        self.clean = not self.placed
        if not self.placed:
            # Pruning never merges adjacent fragments, so an empty GPU would
            # otherwise stay fragmented forever; re-initialise it outright.
            self.free = [Rect(0.0, 0.0, self.width, self.height)]
            return rect
        self.free.append(rect)
        self.free = prune_contained(self.free)
        if len(self.free) > self.restructure_threshold:
            self.restructure()
        return rect

    def restructure(self) -> None:
        """Rebuild the free list from scratch around the placed pods."""
        self.restructures += 1
        free = [Rect(0.0, 0.0, self.width, self.height)]
        for pod_rect in self.placed.values():
            next_free: list[Rect] = []
            for rect in free:
                if rect.intersects(pod_rect):
                    next_free.extend(subtract(rect, pod_rect))
                else:
                    next_free.append(rect)
            free = prune_contained(next_free)
        self.free = free
        self.clean = True


#: Cluster node-scoring policies:
#:
#: * ``binpack``  — the paper's Algorithm 2: global best matching by minimum
#:   area gap, concentrating pods onto as few GPUs as possible;
#: * ``spread``   — least-allocated node first (per-node 2D utilization),
#:   trading GPU count for isolation headroom;
#: * ``affinity`` — GPU-type affinity: fastest GPU type (highest speed
#:   factor) that fits wins, falling back to the bin-pack key among equals.
PLACEMENT_POLICIES = ("binpack", "spread", "affinity")


@dataclasses.dataclass(frozen=True, slots=True)
class MigrationMove:
    """One planned relocation: re-place ``pod_id`` at ``target`` on ``dst``.

    ``target`` is a rectangle from the destination's free list *at planning
    time*; executors bind it promptly (same control tick) so it is still
    free when the destination pod admits.
    """

    pod_id: str
    src: str
    dst: str
    w: float
    h: float
    target: Rect


class MaximalRectanglesScheduler:
    """Cluster-level node selection over per-GPU rectangle lists.

    ``policy`` selects the node-scoring rule (:data:`PLACEMENT_POLICIES`);
    ``node_factors`` supplies per-node GPU-type speed factors for the
    ``affinity`` policy (missing nodes default to 1.0, the V100 baseline).
    """

    def __init__(
        self,
        node_names: _t.Sequence[str],
        policy: str = "binpack",
        node_factors: _t.Mapping[str, float] | None = None,
    ):
        if not node_names:
            raise ValueError("need at least one node")
        if policy not in PLACEMENT_POLICIES:
            raise ValueError(f"unknown placement policy {policy!r}; known: {PLACEMENT_POLICIES}")
        self.policy = policy
        self.node_factors = dict(node_factors or {})
        self.gpus: dict[str, GPURectangleList] = {
            name: GPURectangleList() for name in node_names
        }
        self._bindings: dict[str, str] = {}  # pod -> node

    # -- node scoring -----------------------------------------------------------
    def _score(self, name: str, gpu: GPURectangleList, rect: Rect, w: float, h: float):
        """Smaller-is-better sort key for (node, rect) under the policy."""
        binpack_key = (rect.area - w * h, rect.x, name)
        if self.policy == "binpack":
            return binpack_key
        if self.policy == "spread":
            allocated = gpu.used_area() / (gpu.width * gpu.height)
            return (allocated, *binpack_key)
        # affinity: fastest GPU type first, bin-pack among equal types.
        return (-self.node_factors.get(name, 1.0), *binpack_key)

    # -- Algorithm 2 ------------------------------------------------------------
    def select_node(
        self,
        w: float,
        h: float,
        allowed: _t.Callable[[str], bool] | None = None,
        defrag: bool = True,
    ) -> tuple[str, Rect] | None:
        """Policy-scored node selection (default: global best matching).

        ``allowed`` filters nodes by out-of-band constraints (e.g. GPU
        memory).  Returns None when no rectangle fits anywhere — the paper's
        "a new GPU required".

        The keep-reclamation policy returns removed rectangles to the free
        list without merging, so physically contiguous free space can be
        recorded as unmergeable strips and a tall/wide pod "no-fits" a node
        that could actually host it.  With ``defrag=True`` (default), a
        cluster-wide miss triggers a restructure of every fragmented GPU —
        rebuilding free lists from the placed pods, which *does* merge — and
        one retry, before conceding a new GPU is required.  Only GPUs changed
        since their last restructure are rebuilt (a clean free list already
        is one), so a repeated miss on an unchanged cluster costs nothing.
        """
        best = self._select(w, h, allowed)
        if best is None and defrag and self._restructure_dirty():
            best = self._select(w, h, allowed)
        return best

    def select_first(
        self,
        shapes: _t.Sequence[tuple[float, float]],
        allowed: _t.Callable[[str], bool] | None = None,
    ) -> tuple[int, str, Rect] | None:
        """The first of ``shapes`` — ``(w, h)`` pairs, best first — that fits,
        as ``(index, node, rect)``; None when none does.

        A :meth:`select_node` call per shape until one fits, so every shape
        keeps its miss, restructure, retry sequence; a shape no narrower and
        no shorter than one that missed is skipped: that miss restructured
        every changed GPU, so no free list can fit the larger shape either.
        ``allowed`` must not change during the query (GPU memory does not),
        so it is asked at most once per node.
        """
        if allowed is not None:
            allowed = functools.cache(allowed)
        missed: list[tuple[float, float]] = []
        for index, (w, h) in enumerate(shapes):
            if any(w >= w_miss and h >= h_miss for w_miss, h_miss in missed):
                continue
            best = self.select_node(w, h, allowed)
            if best is not None:
                return (index, *best)
            missed.append((w, h))
        return None

    def _restructure_dirty(self) -> bool:
        """Restructure every GPU changed since its last restructure (a clean
        free list already is one); True if any was."""
        dirty = False
        for gpu in self.gpus.values():
            if len(gpu.free) > 1 and not gpu.clean:
                gpu.restructure()
                dirty = True
        return dirty

    def _select(
        self,
        w: float,
        h: float,
        allowed: _t.Callable[[str], bool] | None = None,
    ) -> tuple[str, Rect] | None:
        best: tuple[str, Rect] | None = None
        best_key = None
        w_min, h_min = w - EPS, h - EPS
        for name, gpu in self.gpus.items():
            if gpu.max_w < w_min or gpu.max_h < h_min:
                continue  # no free rectangle is wide or tall enough
            if allowed is not None and not allowed(name):
                continue
            rect = gpu.best_fit(w, h)
            if rect is None:
                continue
            key = self._score(name, gpu, rect, w, h)
            if best_key is None or key < best_key:
                best, best_key = (name, rect), key
        return best

    def bind(
        self,
        pod_id: str,
        w: float,
        h: float,
        allowed: _t.Callable[[str], bool] | None = None,
    ) -> str:
        """Select a node and place the pod; returns the node name."""
        if pod_id in self._bindings:
            raise ValueError(f"pod {pod_id} already bound")
        choice = self.select_node(w, h, allowed)
        if choice is None:
            raise NoFitError(f"no GPU can fit pod rectangle ({w}, {h})")
        name, rect = choice
        self.gpus[name].place(pod_id, w, h, target=rect)
        self._bindings[pod_id] = name
        return name

    def bind_at(
        self,
        pod_id: str,
        node: str,
        w: float,
        h: float,
        target: Rect | None = None,
        require_fit: bool = True,
    ) -> Rect | None:
        """Place ``pod_id`` on a chosen ``node`` and record the binding.

        The public form of what callers used to do by poking ``gpus[...]``
        and ``_bindings`` directly.  ``target`` pins the free rectangle
        (e.g. the one :meth:`select_node` returned); ``require_fit=False``
        tolerates a :class:`NoFitError` and returns ``None`` without
        recording a binding — the deliberate over-subscription path pinned
        single-GPU experiments use.
        """
        if pod_id in self._bindings:
            raise ValueError(f"pod {pod_id} already bound")
        if node not in self.gpus:
            raise KeyError(f"unknown node {node!r}; known: {sorted(self.gpus)}")
        try:
            rect = self.gpus[node].place(pod_id, w, h, target=target)
        except NoFitError:
            if require_fit:
                raise
            return None
        self._bindings[pod_id] = node
        return rect

    def unbind(self, pod_id: str) -> str:
        """Release a pod's rectangle; returns the node it was on."""
        name = self._bindings.pop(pod_id, None)
        if name is None:
            raise KeyError(f"pod {pod_id} is not bound")
        self.gpus[name].remove(pod_id)
        return name

    def node_of(self, pod_id: str) -> str | None:
        return self._bindings.get(pod_id)

    def gpus_in_use(self) -> int:
        return sum(1 for gpu in self.gpus.values() if gpu.placed)

    def utilized_area_by_node(self) -> dict[str, float]:
        """Fraction of each GPU's 2D resource currently allocated."""
        return {
            name: gpu.used_area() / (gpu.width * gpu.height)
            for name, gpu in self.gpus.items()
        }

    # -- fragmentation & defragmentation planning --------------------------------
    def fragmentation_by_node(self) -> dict[str, float]:
        """Per-GPU free-space fragmentation (see
        :meth:`GPURectangleList.fragmentation`)."""
        return {name: gpu.fragmentation() for name, gpu in self.gpus.items()}

    def cluster_fragmentation(self) -> float:
        """Cluster-level fragmentation: 1 − largest-free-rect / total-free.

        The largest free rectangle *anywhere* is the biggest pod the cluster
        can still place, so this ratio is high both when individual GPUs are
        internally shredded and when free capacity is scattered one sliver
        per GPU (the spread-policy failure mode) — exactly the states where
        consolidation migrations pay off.  An idle cluster reads 0.0: with
        nothing placed there is nothing to consolidate, even though free
        capacity is split across GPUs.
        """
        if not any(gpu.placed for gpu in self.gpus.values()):
            return 0.0
        total_free = sum(gpu.free_area() for gpu in self.gpus.values())
        if total_free <= EPS:
            return 0.0
        largest = max(gpu.largest_free_area() for gpu in self.gpus.values())
        return max(0.0, 1.0 - largest / total_free)

    def plan_migrations(
        self,
        max_moves: int,
        allowed: _t.Callable[[str, str], bool] | None = None,
        movable: _t.Callable[[str], bool] | None = None,
    ) -> list[MigrationMove]:
        """Plan a budgeted consolidation batch (deterministic, read-only).

        Greedy min-cost strategy: source GPUs are visited in ascending
        (used area, pod count, name) order — the cheapest nodes to vacate —
        and a node is vacated only if *every* pod on it best-fits somewhere
        else under a what-if copy of the other free lists (make-before-break:
        destination rectangles are chosen while the sources still hold their
        space, which is exactly how execution overlaps them).  Partial
        evacuations are never planned: they pay migration cost without
        releasing a GPU.  Destinations must already hold pods in the what-if
        state: evacuating onto an idle GPU leaves the cluster's GPU count
        unchanged and would ping-pong the same pods between empty GPUs tick
        after tick — so every batch strictly reduces GPUs in use (one per
        vacated node).  ``allowed(pod_id, node)`` vetoes destinations the
        caller knows are infeasible out-of-band (GPU memory, affinity);
        ``movable(pod_id)`` vetoes sources (a node holding any unmovable
        pod — e.g. one still cold-starting — is never a candidate).

        Returns at most ``max_moves`` moves; the receiving GPUs of one batch
        are never themselves vacated by the same batch.
        """
        if max_moves < 1:
            return []
        shadow = {name: gpu.clone() for name, gpu in self.gpus.items()}
        moves: list[MigrationMove] = []
        emptied: set[str] = set()
        receivers: set[str] = set()
        candidates = sorted(
            (name for name, gpu in self.gpus.items() if gpu.placed),
            key=lambda n: (self.gpus[n].used_area(), len(self.gpus[n].placed), n),
        )
        for src in candidates:
            if src in receivers or len(moves) >= max_moves:
                continue
            pods = sorted(
                self.gpus[src].placed.items(),
                key=lambda kv: (-kv[1].area, kv[0]),
            )
            if len(moves) + len(pods) > max_moves:
                continue
            if movable is not None and not all(movable(pid) for pid, _ in pods):
                continue
            trial = {name: gpu.clone() for name, gpu in shadow.items()}
            node_moves: list[MigrationMove] = []
            feasible = True
            for pod_id, rect in pods:
                best: tuple[str, Rect] | None = None
                best_key = None
                for dst, gpu in trial.items():
                    if dst == src or dst in emptied or not gpu.placed:
                        continue
                    if allowed is not None and not allowed(pod_id, dst):
                        continue
                    fit = gpu.best_fit(rect.w, rect.h)
                    if fit is None:
                        continue
                    key = (fit.area - rect.area, fit.x, fit.y, dst)
                    if best_key is None or key < best_key:
                        best, best_key = (dst, fit), key
                if best is None:
                    feasible = False
                    break
                dst, fit = best
                trial[dst].place(pod_id, rect.w, rect.h, target=fit)
                node_moves.append(
                    MigrationMove(
                        pod_id=pod_id, src=src, dst=dst,
                        w=rect.w, h=rect.h, target=fit,
                    )
                )
            if not feasible:
                continue
            shadow = trial
            moves.extend(node_moves)
            emptied.add(src)
            receivers.update(move.dst for move in node_moves)
        return moves
