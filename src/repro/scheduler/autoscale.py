"""The Heuristic Scaling Algorithm (paper Algorithm 1).

Given per-function RPS processing gaps ``ΔRPS_j = R_j − Σ T_{j,i}``:

* **scale-up** (Δ ≥ 0): pick the most GPU-efficient profile point
  ``p_eff = argmax_p T/(S·Q)`` (max RPR); deploy ``n = ⌊Δ/T_eff⌋`` such pods,
  then one minimal-but-sufficient ``p_ideal = argmin_p (T_p − r)`` s.t.
  ``T_p > r`` for the residual ``r``;
* **scale-down** (Δ < 0): walk the function's running pods in ascending RPR
  (the ``L_j`` priority queue) and remove pods while the freed throughput
  still fits inside the surplus — efficient pods survive longest.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t

from repro.profiler.database import ProfileDatabase, ProfilePoint


@dataclasses.dataclass(frozen=True, slots=True)
class RunningPod:
    """A live replica as the scaler sees it."""

    pod_id: str
    sm_partition: float
    quota: float
    throughput: float

    @property
    def rpr(self) -> float:
        return self.throughput / (self.sm_partition * self.quota)


@dataclasses.dataclass(frozen=True, slots=True)
class ScaleUpAction:
    """Deploy one new pod with this profile configuration ("<+>")."""

    function: str
    sm_partition: float
    quota: float
    throughput: float


@dataclasses.dataclass(frozen=True, slots=True)
class ScaleDownAction:
    """Remove this running pod ("<->")."""

    function: str
    pod_id: str
    throughput: float


ScalingAction = ScaleUpAction | ScaleDownAction


class HeuristicScaler:
    """Algorithm 1 over a profile database.

    ``slo_ms`` (per function) makes the scaler SLO-aware: only profile points
    whose measured queue-free latency fits within ``latency_headroom`` of the
    SLO are candidates for ``p_eff``/``p_ideal`` — GPU-efficient but slow
    configurations (tiny partitions, thin quotas) must not be deployed for a
    latency-bound function.  The remaining SLO fraction is queueing budget.
    """

    def __init__(
        self,
        database: ProfileDatabase,
        slo_ms: _t.Mapping[str, float] | None = None,
        latency_headroom: float = 0.6,
        epsilon_rps: float = 1e-9,
    ):
        if not 0 < latency_headroom <= 1:
            raise ValueError("latency_headroom must be in (0, 1]")
        self.database = database
        self.slo_ms = dict(slo_ms) if slo_ms else {}
        self.latency_headroom = latency_headroom
        self.epsilon_rps = epsilon_rps
        # (candidate_points, p_eff) per function, for one profile-DB version.
        self._memo: dict[str, tuple[list[ProfilePoint], ProfilePoint]] = {}
        self._memo_version = database.version

    @classmethod
    def for_cluster(
        cls,
        database: ProfileDatabase,
        slo_ms: _t.Mapping[str, float],
        latency_headroom: float,
        speed_factors: _t.Mapping[str, float],
    ) -> "HeuristicScaler":
        """A scaler whose SLO budget holds on the cluster's slowest GPU.

        Profile latencies are V100-calibrated; on a cluster containing
        slower GPU types a pod's GPU-resident time grows by 1/factor, so
        the SLO-feasibility budget shrinks by the slowest node's factor —
        a config passing this bound meets its latency budget on any node.
        """
        slowest = min(1.0, min(speed_factors.values()))
        return cls(database, slo_ms=slo_ms, latency_headroom=latency_headroom * slowest)

    # -- SLO-feasible candidate set ------------------------------------------
    def _feasible(self, function: str) -> tuple[list[ProfilePoint], ProfilePoint]:
        if self._memo_version != self.database.version:
            self._memo, self._memo_version = {}, self.database.version
        if function not in self._memo:
            points = self._filter(function)
            self._memo[function] = (points, max(points, key=lambda p: p.rpr))
        return self._memo[function]

    def candidate_points(self, function: str) -> list[ProfilePoint]:
        """Profile points meeting the function's SLO latency budget
        (memoized per database version; callers must not mutate it)."""
        return self._feasible(function)[0]

    def _filter(self, function: str) -> list[ProfilePoint]:
        points = self.database.points(function)
        if not points:
            raise KeyError(f"no profile records for function {function!r}")
        slo = self.slo_ms.get(function)
        if slo is None:
            return points
        budget = self.latency_headroom * slo

        def latency(p: ProfilePoint) -> float:
            return p.p95_ms if not math.isnan(p.p95_ms) else p.p50_ms

        feasible = [p for p in points if math.isnan(latency(p)) or latency(p) <= budget]
        if feasible:
            return feasible
        # Nothing fits the budget: fall back to the fastest configuration —
        # deploying *something* beats refusing to scale at all.
        return [min(points, key=latency)]

    def p_eff(self, function: str) -> ProfilePoint:
        """The most GPU-efficient SLO-feasible configuration."""
        return self._feasible(function)[1]

    # -- the algorithm -------------------------------------------------------
    def plan(
        self,
        delta_rps: _t.Mapping[str, float],
        running: _t.Mapping[str, _t.Sequence[RunningPod]],
    ) -> list[ScalingAction]:
        """Compute the new-configuration list (the paper's ``cfgs``)."""
        actions: list[ScalingAction] = []
        for function, delta in delta_rps.items():
            if delta >= self.epsilon_rps:
                actions.extend(self._scale_up(function, delta))
            elif delta <= -self.epsilon_rps:
                actions.extend(self._scale_down(function, delta, running.get(function, ())))
        return actions

    def _scale_up(self, function: str, delta: float) -> list[ScaleUpAction]:
        p_eff = self.p_eff(function)
        t_eff = p_eff.throughput
        if t_eff <= 0:
            raise ValueError(f"{function}: non-positive profiled throughput at p_eff")
        n = int(math.floor(delta / t_eff))
        residual = delta - n * t_eff
        actions = [
            ScaleUpAction(function, p_eff.sm_partition, p_eff.quota, t_eff)
            for _ in range(n)
        ]
        if residual > self.epsilon_rps:
            p_ideal = self._ideal_point(function, residual, p_eff)
            actions.append(
                ScaleUpAction(function, p_ideal.sm_partition, p_ideal.quota, p_ideal.throughput)
            )
        return actions

    def _ideal_point(self, function: str, residual: float, p_eff: ProfilePoint) -> ProfilePoint:
        """argmin (T_p − r) over SLO-feasible points with T_p > r.

        By construction ``r < T_eff`` so the p_eff fallback only triggers on
        degenerate single-point profiles.
        """
        candidates = [p for p in self.candidate_points(function) if p.throughput > residual]
        if not candidates:
            return p_eff
        return min(candidates, key=lambda p: (p.throughput - residual, -p.rpr))

    def _scale_down(
        self,
        function: str,
        delta: float,
        running: _t.Sequence[RunningPod],
    ) -> list[ScaleDownAction]:
        actions: list[ScaleDownAction] = []
        remaining = delta  # negative
        # L_j: ascending RPR — least efficient pods are removed first.
        for pod in sorted(running, key=lambda p: (p.rpr, p.pod_id)):
            if remaining >= -self.epsilon_rps:
                break
            if remaining + pod.throughput <= 0:
                actions.append(ScaleDownAction(function, pod.pod_id, pod.throughput))
                remaining += pod.throughput
            else:
                # Removing this pod would under-provision; stop (front of the
                # queue no longer removable — the paper's loop exits here).
                break
        return actions
