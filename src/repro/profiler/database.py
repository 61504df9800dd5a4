"""The profiling database: ``<F, S, Q, T>`` records plus latency/GPU metrics.

``RPR`` (RPS per Resource, paper §3.4.1) is the scheduler's efficiency
metric: ``RPR = T / (S · Q)`` — throughput per unit of the 2D resource
rectangle.  ``S`` is the SM partition in percent and ``Q`` the quota
fraction, matching the paper's formula verbatim; only relative comparisons
matter, so the unit convention is free.
"""

from __future__ import annotations

import collections
import dataclasses
import typing as _t

from repro.models.profiles import ModelProfile


@dataclasses.dataclass(frozen=True, slots=True)
class ProfilePoint:
    """One profiling record for a function at a (S, Q) configuration."""

    function: str
    sm_partition: float
    quota: float
    throughput: float
    p50_ms: float = float("nan")
    p95_ms: float = float("nan")
    gpu_utilization: float = float("nan")
    sm_occupancy: float = float("nan")

    @property
    def rpr(self) -> float:
        """RPS per Resource: the GPU-efficiency of this configuration."""
        return self.throughput / (self.sm_partition * self.quota)

    @property
    def area(self) -> float:
        """The "secondCores" resource-rectangle area: Quota × SMs (paper §3.4.2)."""
        return self.sm_partition * (self.quota * 100.0)


class ProfileDatabase:
    """In-memory store of profiling records, indexed by function."""

    def __init__(self) -> None:
        self._records: dict[str, list[ProfilePoint]] = collections.defaultdict(list)
        #: Bumped by every :meth:`insert`, so caches of derived views expire.
        self.version = 0

    def insert(self, point: ProfilePoint) -> None:
        """Add a record, replacing any existing record at the same (S, Q)."""
        self.version += 1
        rows = self._records[point.function]
        rows[:] = [
            r for r in rows
            if not (r.sm_partition == point.sm_partition and r.quota == point.quota)
        ]
        rows.append(point)

    def points(self, function: str) -> list[ProfilePoint]:
        """All records for a function, sorted by (S, Q)."""
        return sorted(self._records.get(function, []), key=lambda p: (p.sm_partition, p.quota))

    def functions(self) -> list[str]:
        return sorted(self._records)

    def get(self, function: str, sm_partition: float, quota: float) -> ProfilePoint | None:
        for point in self._records.get(function, []):
            if point.sm_partition == sm_partition and point.quota == quota:
                return point
        return None

    def best_rpr(self, function: str) -> ProfilePoint:
        """The paper's ``p_eff``: the most GPU-efficient configuration."""
        points = self._records.get(function)
        if not points:
            raise KeyError(f"no profile records for function {function!r}")
        return max(points, key=lambda p: p.rpr)

    def throughput_of(self, function: str, sm_partition: float, quota: float) -> float:
        """Exact-point lookup; raises if the configuration was never profiled."""
        point = self.get(function, sm_partition, quota)
        if point is None:
            raise KeyError(
                f"{function}: configuration (S={sm_partition}, Q={quota}) not profiled"
            )
        return point.throughput

    # -- analytic seeding ----------------------------------------------------------
    @classmethod
    def analytic(
        cls,
        functions: _t.Mapping[str, ModelProfile],
        spatial: _t.Sequence[float] = (6, 12, 24, 50, 60, 80, 100),
        temporal: _t.Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    ) -> "ProfileDatabase":
        """Seed a database from the models' analytic rate curves.

        Used where the paper assumes profiling has already happened (e.g.
        scheduler unit tests); macro experiments use the measured
        :class:`~repro.profiler.experiment.FaSTProfiler` instead.
        """
        db = cls()
        for name, model in functions.items():
            for s in spatial:
                for q in temporal:
                    latency_ms = 1000.0 * model.expected_latency_s(s, q)
                    db.insert(
                        ProfilePoint(
                            function=name,
                            sm_partition=s,
                            quota=q,
                            throughput=model.expected_rate(s, q),
                            p50_ms=latency_ms,
                            # Mild inflation approximates measured tail jitter.
                            p95_ms=1.2 * latency_ms,
                        )
                    )
        return db
