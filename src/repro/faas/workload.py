"""Arrival-process workloads (the Grafana k6 substitute).

Each workload yields absolute arrival times over its duration and exposes
``rps_at(t)`` — the offered load curve the paper plots alongside measured
behaviour (Fig. 12's "workload request" line).
"""

from __future__ import annotations

import abc
import typing as _t

import numpy as np


class Workload(abc.ABC):
    """An arrival process over a finite horizon."""

    @property
    @abc.abstractmethod
    def duration(self) -> float:
        """Total length of the workload in seconds."""

    @abc.abstractmethod
    def rps_at(self, t: float) -> float:
        """Offered load (req/s) at time ``t``."""

    @abc.abstractmethod
    def arrival_times(self, rng: np.random.Generator) -> _t.Iterator[float]:
        """Yield absolute arrival times in increasing order."""


class StepTrace(Workload):
    """Piecewise-constant rate: [(duration, rps), ...] (Fig. 12's staircase).

    ``poisson=True`` jitters arrivals within each step; ``False`` spaces them
    deterministically.  One step is a fixed rate: ``StepTrace([(60, 20)])``.
    """

    def __init__(self, steps: _t.Sequence[tuple[float, float]], poisson: bool = True):
        if not steps:
            raise ValueError("need at least one step")
        for duration, rps in steps:
            if duration <= 0 or rps < 0:
                raise ValueError(f"bad step ({duration}, {rps})")
        self.steps = [(float(d), float(r)) for d, r in steps]
        self.poisson = poisson
        self._edges = np.cumsum([0.0] + [d for d, _ in self.steps])

    @property
    def duration(self) -> float:
        return float(self._edges[-1])

    def rps_at(self, t: float) -> float:
        if t < 0 or t >= self.duration:
            return 0.0
        index = int(np.searchsorted(self._edges, t, side="right")) - 1
        return self.steps[index][1]

    def arrival_times(self, rng: np.random.Generator) -> _t.Iterator[float]:
        for (start, (duration, rps)) in zip(self._edges[:-1], self.steps):
            if rps == 0:
                continue
            if self.poisson:
                t = float(start)
                end = float(start) + duration
                while True:
                    t += float(rng.exponential(1.0 / rps))
                    if t > end:
                        break
                    yield t
            else:
                gap = 1.0 / rps
                t = float(start) + gap
                end = float(start) + duration
                while t <= end:
                    yield t
                    t += gap

    @classmethod
    def fig12_trace(cls) -> "StepTrace":
        """The stepped 0→100 req/s trace used for the auto-scaling experiment.

        The paper plots ~175 s of workload ramping between 10 and 100 req/s;
        this staircase matches that envelope.
        """
        return cls(
            steps=[
                (20, 10),
                (25, 35),
                (25, 70),
                (25, 100),
                (25, 60),
                (25, 90),
                (30, 25),
            ]
        )
