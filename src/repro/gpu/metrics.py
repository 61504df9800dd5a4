"""DCGM-style GPU metric accounting.

Two metrics, defined exactly as the paper uses them (Figs. 1, 10, 11):

* **GPU utilization** — what ``nvidia-smi`` reports: the fraction of
  wall-clock time during which at least one kernel is resident on the device.
* **SM occupancy** — the mean fraction of the device's SM capacity actually
  kept busy (DCGM ``SMOCC``-like).  A time-shared GPU can show ~100%
  utilization with <10% occupancy, which is the paper's core motivation.

Integrals are updated exactly at every execution-state transition (no
sampling error); :class:`MetricsSampler` additionally records a per-interval
time series for the figure-style plots.
"""

from __future__ import annotations

import dataclasses
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device import GPUDevice
    from repro.sim.engine import Engine


@dataclasses.dataclass(frozen=True, slots=True)
class UtilizationSample:
    """One sampling-interval observation (for time-series figures)."""

    time: float
    utilization: float
    sm_occupancy: float
    active_bursts: int
    memory_used_mb: float


class GPUMetrics:
    """Event-exact utilization / occupancy integrals for one device."""

    def __init__(self) -> None:
        self._busy_integral = 0.0
        self._occ_integral = 0.0
        self._window_start = 0.0
        # Mark points let callers measure sub-windows without resetting.
        self._marks: dict[str, tuple[float, float, float]] = {}

    # -- integration (called by the device on every transition) -----------
    def integrate(self, start: float, end: float, n_active: int, occupancy_rate: float) -> None:
        """Accumulate one constant-state interval [start, end)."""
        dt = end - start
        if dt < 0:
            raise ValueError(f"negative interval {start}..{end}")
        if n_active > 0:
            self._busy_integral += dt
            self._occ_integral += dt * occupancy_rate

    # -- window management ---------------------------------------------------
    def mark(self, name: str, now: float) -> None:
        """Remember current integrals under ``name`` (for sub-window queries)."""
        self._marks[name] = (now, self._busy_integral, self._occ_integral)

    def since_mark(self, name: str, now: float) -> tuple[float, float]:
        """(utilization, occupancy) averaged since :meth:`mark` ``name``."""
        t0, busy0, occ0 = self._marks[name]
        span = now - t0
        if span <= 0:
            return 0.0, 0.0
        return (self._busy_integral - busy0) / span, (self._occ_integral - occ0) / span

    def reset(self, now: float) -> None:
        """Restart the averaging window at ``now``."""
        self._busy_integral = 0.0
        self._occ_integral = 0.0
        self._window_start = now
        self._marks.clear()

    # -- queries ------------------------------------------------------------
    def utilization(self, now: float) -> float:
        """Mean utilization in [window_start, now] as a 0..1 fraction."""
        span = now - self._window_start
        return self._busy_integral / span if span > 0 else 0.0

    def sm_occupancy(self, now: float) -> float:
        """Mean SM occupancy in [window_start, now] as a 0..1 fraction."""
        span = now - self._window_start
        return self._occ_integral / span if span > 0 else 0.0

    @property
    def busy_seconds(self) -> float:
        return self._busy_integral


class MetricsSampler:
    """Periodic sampler producing a time series of utilization/occupancy.

    Mirrors DCGM-exporter polling: every ``interval`` seconds it reports the
    *mean over the elapsed interval* (not an instantaneous point), which is
    what the paper's per-second plots show.
    """

    def __init__(self, engine: "Engine", device: "GPUDevice", interval: float = 1.0):
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.engine = engine
        self.device = device
        self.interval = interval
        self.samples: list[UtilizationSample] = []
        self._mark_name = f"sampler@{id(self)}"
        device.metrics.mark(self._mark_name, engine.now)
        self._handle = engine.schedule(interval, self._tick)

    def _tick(self) -> None:
        now = self.engine.now
        self.device.sync_metrics()
        util, occ = self.device.metrics.since_mark(self._mark_name, now)
        self.samples.append(
            UtilizationSample(
                time=now,
                utilization=util,
                sm_occupancy=occ,
                active_bursts=self.device.active_count,
                memory_used_mb=self.device.memory.used_mb,
            )
        )
        self.device.metrics.mark(self._mark_name, now)
        self._handle = self.engine.schedule(self.interval, self._tick)

    def stop(self) -> None:
        self._handle.cancel()

    def series(self) -> tuple[list[float], list[float], list[float]]:
        """(times, utilization%, occupancy%) convenience accessor."""
        times = [s.time for s in self.samples]
        utils = [100.0 * s.utilization for s in self.samples]
        occs = [100.0 * s.sm_occupancy for s in self.samples]
        return times, utils, occs
