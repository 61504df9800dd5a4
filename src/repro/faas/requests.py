"""Request records and the request log."""

from __future__ import annotations

import dataclasses
import itertools
import typing as _t

import numpy as np

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event

_request_ids = itertools.count(1)


@dataclasses.dataclass(slots=True)
class Request:
    """One inference request's lifecycle timestamps."""

    function: str
    arrival: float
    request_id: int = dataclasses.field(default_factory=lambda: next(_request_ids))
    start: float | None = None
    end: float | None = None
    replica_id: str | None = None
    #: seconds spent parked in the gateway pending queue because *no* replica
    #: was accepting — cold-start-attributable delay, as opposed to ordinary
    #: replica-queue wait behind other requests.
    cold_wait: float = 0.0
    #: seconds spent parked while a HOST_RESIDENT pod was swapping in for
    #: this function — memory-tier-attributable delay, split out from
    #: ``cold_wait`` so swap-ins and full cold starts are distinguishable.
    swap_wait: float = 0.0
    #: transient: a swap-in was in flight while this request was parked, so
    #: its pending wait is credited to ``swap_wait`` on drain.
    swap_marked: bool = False
    #: transient: when the request was parked in the pending queue (unset
    #: while routed to a replica).
    parked_at: float | None = None
    #: settled on completion; closed-loop clients wait on it.
    done_event: "Event | None" = None

    @property
    def latency(self) -> float:
        """End-to-end latency (arrival → completion), seconds."""
        if self.end is None:
            raise ValueError(f"request {self.request_id} not finished")
        return self.end - self.arrival

    @property
    def queue_wait(self) -> float:
        """Total pre-service wait (arrival → first service), seconds."""
        if self.start is None:
            raise ValueError(f"request {self.request_id} never started")
        return self.start - self.arrival

    @property
    def replica_queue_wait(self) -> float:
        """Wait behind other requests on an *accepting* replica — the total
        queue wait minus the cold-start- and swap-attributable pending time."""
        return max(0.0, self.queue_wait - self.cold_wait - self.swap_wait)

    def in_window(self, t0: float, t1: float) -> bool:
        """Arrived at or after ``t0`` and completed before ``t1``: the one
        measured-window rule.  A window's submitted count leaves out the
        requests that arrived before it opened, so its completed count must
        leave them out too."""
        return self.end is not None and t0 <= self.arrival and self.end < t1


class RequestLog:
    """Completed-request analytics for one run."""

    def __init__(self) -> None:
        self.completed: list[Request] = []
        self.submitted = 0

    def note_submitted(self) -> None:
        self.submitted += 1

    def note_completed(self, request: Request) -> None:
        self.completed.append(request)

    def __len__(self) -> int:
        return len(self.completed)

    # -- filters -------------------------------------------------------------
    def for_function(self, function: str) -> "RequestLog":
        view = RequestLog()
        view.completed = [r for r in self.completed if r.function == function]
        view.submitted = self.submitted  # function-level submit counts are on the gateway
        return view

    def in_window(self, t0: float, t1: float) -> "RequestLog":
        """Requests that arrived and completed within [t0, t1)
        (:meth:`Request.in_window`)."""
        view = RequestLog()
        view.completed = [r for r in self.completed if r.in_window(t0, t1)]
        return view

    # -- analytics ----------------------------------------------------------------
    def latencies_ms(self) -> np.ndarray:
        return np.array([1000.0 * r.latency for r in self.completed], dtype=float)

    def cold_waits_ms(self) -> np.ndarray:
        """Per-request cold-start-attributable pending-queue wait (ms)."""
        return np.array([1000.0 * r.cold_wait for r in self.completed], dtype=float)

    def queue_waits_ms(self) -> np.ndarray:
        """Per-request replica-queue wait, cold-start time excluded (ms)."""
        return np.array(
            [1000.0 * r.replica_queue_wait for r in self.completed if r.start is not None],
            dtype=float,
        )

    def cold_hits(self) -> int:
        """Requests that spent any time waiting on a cold start."""
        return sum(1 for r in self.completed if r.cold_wait > 0.0)

    def swap_waits_ms(self) -> np.ndarray:
        """Per-request swap-in-attributable pending-queue wait (ms)."""
        return np.array([1000.0 * r.swap_wait for r in self.completed], dtype=float)

    def swap_hits(self) -> int:
        """Requests that spent any time waiting on a host→GPU swap-in."""
        return sum(1 for r in self.completed if r.swap_wait > 0.0)

    def latency_percentile_ms(self, percentile: float) -> float:
        return self.latency_percentiles_ms(percentile)[0]

    def latency_percentiles_ms(self, *percentiles: float) -> tuple[float, ...]:
        """Several latency percentiles (ms) from one ``np.percentile`` call
        (bit-identical to one call each); NaN each when nothing completed."""
        latencies = self.latencies_ms()
        if latencies.size == 0:
            return (float("nan"),) * len(percentiles)
        return tuple(float(p) for p in np.percentile(latencies, percentiles))

    def throughput(self, duration: float) -> float:
        """Completed requests per second over ``duration``."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        return len(self.completed) / duration

    def completions_per_second(
        self, horizon: float, bin_s: float = 1.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Time series of completion rate (the paper's throughput-vs-time plots)."""
        edges = np.arange(0.0, horizon + bin_s, bin_s)
        ends = np.array([r.end for r in self.completed if r.end is not None], dtype=float)
        counts, _ = np.histogram(ends, bins=edges)
        return edges[1:], counts / bin_s
