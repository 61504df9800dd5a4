"""The per-node host↔GPU transfer fabric (PCIe/NVLink link model).

FaaSTube's observation (PAPERS.md) is that once models swap between host
RAM and GPU memory on demand, the *interconnect* becomes the contended
resource: concurrent swap-ins share the link, and a transfer admitted onto
a busy fabric takes longer than the same transfer on an idle one.  Real
runtimes pipeline weights in chunks, which in the limit of small chunks is
**processor sharing**: at any instant each of the ``n`` in-flight transfers
progresses at ``bandwidth / n``.  :class:`TransferFabric` implements that
fluid fair-share model exactly and event-sparsely — rates are only
re-divided when the set of in-flight transfers changes, and between
membership changes a single timer tracks the earliest completion.

Invariants (property-tested in ``tests/property/test_memtier.py``):

* conservation — the instantaneous rates of concurrent transfers always
  sum to at most the link bandwidth (exactly the bandwidth while any
  transfer is in flight);
* determinism — completion order is fully determined by start order and
  sizes; simultaneous completions settle in FIFO start order.
"""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine, Handle
    from repro.sim.events import Event

#: Remaining megabytes below which a transfer is considered complete
#: (guards float drift when advancing the fluid clock).
_EPSILON_MB = 1e-9


class _Transfer:
    """One in-flight host→GPU copy."""

    __slots__ = ("mb", "mb_left", "done", "seq", "started_at")

    def __init__(self, mb: float, done: "Event", seq: int, started_at: float):
        self.mb = mb
        self.mb_left = mb
        self.done = done
        self.seq = seq
        self.started_at = started_at


class TransferFabric:
    """Fluid fair-share host↔GPU link of one node.

    Parameters
    ----------
    engine:
        The DES engine (timers + completion events).
    gbps:
        Link bandwidth in **gigabytes per second** (PCIe 3.0 x16 ≈ 16,
        PCIe 4.0 x16 ≈ 32, NVLink higher).  The default matches the PCIe
        3.0 fabric of the paper's V100 testbed.
    """

    def __init__(self, engine: "Engine", gbps: float = 16.0, name: str = "pcie"):
        if gbps <= 0:
            raise ValueError(f"fabric bandwidth must be positive, got {gbps}")
        self.engine = engine
        self.gbps = float(gbps)
        self.name = name
        self._active: list[_Transfer] = []
        self._seq = 0
        self._timer: "Handle | None" = None
        self._clock = 0.0  # engine time of the last fluid advance
        #: Completed-transfer counters (report/debug surface).
        self.completed = 0
        self.transferred_mb = 0.0

    # -- queries -----------------------------------------------------------
    @property
    def total_mb_per_s(self) -> float:
        """Aggregate link rate in MB/s."""
        return self.gbps * 1024.0

    @property
    def active_count(self) -> int:
        """Transfers currently in flight."""
        return len(self._active)

    def estimate_s(self, mb: float) -> float:
        """Swap-in time estimate for ``mb`` admitted *now*.

        The documented promotion-cost hook: assumes the current in-flight
        set persists (each of the ``n+1`` sharers then gets ``1/(n+1)`` of
        the link), which is exact on an idle fabric and pessimistic by at
        most the residual life of the current sharers otherwise.
        """
        if mb <= 0:
            return 0.0
        return mb * (len(self._active) + 1) / self.total_mb_per_s

    # -- transfer lifecycle ------------------------------------------------
    def transfer(self, mb: float) -> "Event":
        """Start a host→GPU copy of ``mb``; returns its completion event.

        Admission immediately re-divides the link among all in-flight
        transfers (the fluid limit of chunked pipelining), so everything
        already copying slows down and the new copy's duration depends on
        the load it encounters for as long as it runs.
        """
        done = self.engine.event(name=f"{self.name}:swap({mb:g}MB)")
        if mb <= _EPSILON_MB:
            return done.succeed(0.0)
        self._advance()
        self._seq += 1
        self._active.append(_Transfer(float(mb), done, self._seq, self.engine.now))
        self._reschedule()
        return done

    # -- fluid clock ---------------------------------------------------------
    def _advance(self) -> None:
        """Progress every in-flight transfer up to ``engine.now``."""
        now = self.engine.now
        elapsed = now - self._clock
        self._clock = now
        if elapsed <= 0 or not self._active:
            return
        rate = self.total_mb_per_s / len(self._active)
        for transfer in self._active:
            transfer.mb_left -= rate * elapsed

    def _reschedule(self) -> None:
        """Point the single timer at the earliest completion under fair share."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._active:
            return
        rate = self.total_mb_per_s / len(self._active)
        shortest = min(transfer.mb_left for transfer in self._active)
        self._timer = self.engine.schedule(max(shortest, 0.0) / rate, self._complete)

    def _complete(self) -> None:
        self._timer = None
        self._advance()
        # FIFO start order among simultaneous finishers keeps completion
        # (and therefore promotion) order deterministic under fixed seeds.
        finished = sorted(
            (t for t in self._active if t.mb_left <= _EPSILON_MB),
            key=lambda t: t.seq,
        )
        if finished:
            done_set = {t.seq for t in finished}
            self._active = [t for t in self._active if t.seq not in done_set]
            for transfer in finished:
                self.completed += 1
                self.transferred_mb += transfer.mb
                transfer.done.succeed(self.engine.now - transfer.started_at)
        self._reschedule()

    def rates_mb_per_s(self) -> list[float]:
        """Instantaneous per-transfer rates (conservation introspection)."""
        if not self._active:
            return []
        share = self.total_mb_per_s / len(self._active)
        return [share] * len(self._active)
