"""Pluggable per-function arrival-rate predictors.

Every forecaster consumes the gateway's per-second arrival bins (pull-based:
the controller feeds complete bins each scheduler tick) and answers four
questions the pre-warm policy plans from (all four in one
:meth:`Forecaster.forecast` call):

* :meth:`Forecaster.predict_rps` — expected arrival rate over the near
  horizon (``None`` = no opinion; the reactive gateway signal is used);
* :meth:`Forecaster.next_active_time` — absolute time the next invocation
  is expected (pre-warm *just before* it);
* :meth:`Forecaster.idle_deadline` — absolute time past which the function
  should be scaled to zero (the keep-alive window's tail);
* :meth:`Forecaster.active_rate` — expected arrival rate *while active*
  (sizes the pre-warm fleet for clumped cold-tail traffic).

Implementations:

* :class:`HoltEWMA` — sliding-window double-exponential (level + trend)
  smoothing; catches diurnal tides one tick early.
* :class:`SeasonalBins` — diurnal/seasonal predictor keyed on a known trace
  period: per-phase averages across periods.
* :class:`HybridHistogram` — the Azure-Functions-style hybrid keep-alive
  policy: a histogram of inter-arrival gaps; pre-warm just before the head
  percentile of the next-invocation gap, scale to zero past the tail
  percentile.
* :class:`OracleForecaster` — reads the future from the replayed trace
  (upper bound for experiments).
* :class:`CompositeForecaster` — combines several predictors (max rate,
  earliest next-active, most conservative idle deadline).
"""

from __future__ import annotations

import abc
import bisect
import math
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.faas.traces import FunctionTrace

#: Forecaster kinds :func:`make_forecaster` can build.
FORECASTER_KINDS = ("ewma", "seasonal", "histogram", "hybrid")


class Forecaster(abc.ABC):
    """Arrival-process predictor over the gateway's fixed-width bins.

    Quiescence contract, which the controller's sleep rule relies on: once
    :meth:`next_active_time` returns ``None``, it returns ``None`` for every
    later ``now`` until a non-empty bin is observed.  Over that stretch
    :meth:`idle_deadline` keeps its verdict (``None`` stays ``None``, and a
    deadline at or before ``now`` stays passed) and empty bins never raise
    :meth:`predict_rps` above an earlier answer (``None`` counts as 0).
    :meth:`quiet_until` extends the promise to forecasts that do name a
    next activity.
    """

    #: Predicts no activity before observing a non-empty bin, so a never-invoked
    #: function may go unasked.  False unless declared: the oracle needs no history.
    quiet_until_observed = False

    def __init__(self, bin_s: float = 1.0):
        if bin_s <= 0:
            raise ValueError("bin_s must be positive")
        self.bin_s = bin_s
        self._next_bin = 0

    # -- observation ----------------------------------------------------------
    def ingest(self, bins: _t.Mapping[int, int], upto_bin: int) -> None:
        """Feed every *complete* bin since the last call (pull model)."""
        for index in range(self._next_bin, upto_bin):
            self.observe(index, bins.get(index, 0))
        self._next_bin = max(self._next_bin, upto_bin)

    @abc.abstractmethod
    def observe(self, bin_index: int, count: int) -> None:
        """Record one complete arrival bin."""

    # -- predictions ----------------------------------------------------------
    def predict_rps(self, now: float) -> float | None:
        """Expected arrival rate over the near horizon (None = no opinion)."""
        return None

    def next_active_time(self, now: float) -> float | None:
        """Absolute time the next invocation is expected (None = unknown)."""
        return None

    def idle_deadline(self, now: float) -> float | None:
        """Absolute time past which scale-to-zero is safe (None = unknown)."""
        return None

    def active_rate(self) -> float | None:
        """Expected arrival rate while the function is active."""
        return None

    def forecast(self, now: float) -> tuple[float | None, float | None, float | None, float | None]:
        """``(predict_rps, next_active_time, idle_deadline, active_rate)``
        at ``now``, in one call."""
        return (
            self.predict_rps(now),
            self.next_active_time(now),
            self.idle_deadline(now),
            self.active_rate(),
        )

    def quiet_until(self, now: float) -> float:
        """Until when (exclusive) the answers hold with no non-empty bin
        observed: :meth:`next_active_time` and :meth:`idle_deadline` answer
        as at ``now`` (a passed deadline stays passed, whatever its value)
        and :meth:`predict_rps` does not rise.  At or before ``now`` means
        no promise.

        The default promises only what the quiescence contract does: forever
        once nothing is predicted and the deadline is passed or unknown,
        else nothing.
        """
        if self.next_active_time(now) is None:
            deadline = self.idle_deadline(now)
            if deadline is None or deadline <= now:
                return math.inf
        return now


class HoltEWMA(Forecaster):
    """Sliding-window EWMA with a trend term (Holt double smoothing).

    ``predict_rps`` extrapolates the level ``horizon_bins`` ahead along the
    smoothed trend, so a rising tide is anticipated rather than chased; the
    trend is clamped at zero on the way down (under-provisioning on a fall
    is the reactive loop's job — hysteresis protects it).
    """

    quiet_until_observed = True

    def __init__(
        self,
        bin_s: float = 1.0,
        alpha: float = 0.35,
        beta: float = 0.25,
        horizon_bins: float = 3.0,
    ):
        super().__init__(bin_s)
        if not 0 < alpha <= 1 or not 0 < beta <= 1:
            raise ValueError("alpha and beta must be in (0, 1]")
        self.alpha = alpha
        self.beta = beta
        self.horizon_bins = horizon_bins
        self.level: float | None = None
        self.trend = 0.0
        self._active_ewma: float | None = None

    def observe(self, bin_index: int, count: int) -> None:
        rate = count / self.bin_s
        if self.level is None:
            self.level = rate
            return
        previous = self.level
        self.level = self.alpha * rate + (1.0 - self.alpha) * self.level
        self.trend = self.beta * (self.level - previous) + (1.0 - self.beta) * self.trend
        if count > 0:
            if self._active_ewma is None:
                self._active_ewma = rate
            else:
                self._active_ewma = self.alpha * rate + (1.0 - self.alpha) * self._active_ewma

    def predict_rps(self, now: float) -> float | None:
        if self.level is None:
            return None
        return max(0.0, self.level + max(0.0, self.trend) * self.horizon_bins)

    def active_rate(self) -> float | None:
        return self._active_ewma


class SeasonalBins(Forecaster):
    """Seasonal/diurnal predictor keyed on a known trace period.

    Bin indices are folded modulo the period; each phase keeps the mean rate
    observed across periods.  Predictions only speak once a phase has been
    seen at least once (i.e. from the second period on) — before that the
    reactive signal rules.
    """

    quiet_until_observed = True

    def __init__(self, period_s: float, bin_s: float = 1.0):
        super().__init__(bin_s)
        if period_s <= bin_s:
            raise ValueError("period must exceed the bin width")
        self.period_bins = max(2, int(round(period_s / bin_s)))
        self._sums = [0.0] * self.period_bins
        self._counts = [0] * self.period_bins
        self._active_sum = 0.0
        self._active_n = 0

    def observe(self, bin_index: int, count: int) -> None:
        phase = bin_index % self.period_bins
        self._sums[phase] += count / self.bin_s
        self._counts[phase] += 1
        if count > 0:
            self._active_sum += count / self.bin_s
            self._active_n += 1

    def _phase_rate(self, phase: int) -> float | None:
        if self._counts[phase] == 0:
            return None
        return self._sums[phase] / self._counts[phase]

    def predict_rps(self, now: float) -> float | None:
        # The phase of the *next* complete bin — what the upcoming scaling
        # interval will face.
        phase = (int(math.floor(now / self.bin_s)) + 1) % self.period_bins
        return self._phase_rate(phase)

    def next_active_time(self, now: float) -> float | None:
        current = int(math.floor(now / self.bin_s))
        for ahead in range(self.period_bins):
            rate = self._phase_rate((current + ahead) % self.period_bins)
            if rate is not None and rate > 0:
                return (current + ahead) * self.bin_s if ahead else now
        return None

    def active_rate(self) -> float | None:
        if self._active_n == 0:
            return None
        return self._active_sum / self._active_n


class HybridHistogram(Forecaster):
    """Azure-style hybrid histogram keep-alive policy.

    Records the gaps between consecutive *active* bins.  After the last
    arrival, the next invocation is expected no earlier than the head
    percentile of that gap distribution and almost surely by the tail
    percentile — so: pre-warm just before the head percentile, keep warm
    until the tail percentile, scale to zero past it.  With too few samples
    the policy abstains (``None``) and the defaults rule.
    """

    quiet_until_observed = True

    def __init__(
        self,
        bin_s: float = 1.0,
        head_pct: float = 5.0,
        tail_pct: float = 99.0,
        min_samples: int = 3,
        min_keepalive_s: float = 5.0,
        alpha: float = 0.35,
    ):
        super().__init__(bin_s)
        if not 0 <= head_pct < tail_pct <= 100:
            raise ValueError("need 0 <= head_pct < tail_pct <= 100")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.head_pct = head_pct
        self.tail_pct = tail_pct
        self.min_samples = min_samples
        self.min_keepalive_s = min_keepalive_s
        self.alpha = alpha
        self.gaps: list[float] = []  # kept sorted: observe() inserts in order
        self.last_active_time: float | None = None
        self._last_active_bin: int | None = None
        self._active_ewma: float | None = None

    def observe(self, bin_index: int, count: int) -> None:
        if count <= 0:
            return
        if self._last_active_bin is not None:
            gap = (bin_index - self._last_active_bin) * self.bin_s
            if gap > 0:
                bisect.insort(self.gaps, gap)
        self._last_active_bin = bin_index
        # End of the active bin: the most recent moment we know traffic existed.
        self.last_active_time = (bin_index + 1) * self.bin_s
        rate = count / self.bin_s
        if self._active_ewma is None:
            self._active_ewma = rate
        else:
            self._active_ewma = self.alpha * rate + (1.0 - self.alpha) * self._active_ewma

    @staticmethod
    def _percentile(ordered: _t.Sequence[float], pct: float) -> float:
        if not ordered:
            raise ValueError("no gap samples")
        rank = pct / 100.0 * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = min(low + 1, len(ordered) - 1)
        frac = rank - low
        return ordered[low] * (1.0 - frac) + ordered[high] * frac

    def _conditional_gaps(self, elapsed: float) -> list[float]:
        """Gap samples still consistent with the current idle time.

        Clumped (cold-tail) traffic yields a bimodal gap distribution: many
        short intra-clump gaps and a few long inter-clump gaps.  Once the
        function has been idle longer than the short mode, only the long
        gaps can still describe the next arrival — predicting from the
        *conditional* distribution (gaps > elapsed) is what turns the
        histogram from "always imminent" into a clump forecaster.
        """
        return self.gaps[bisect.bisect_right(self.gaps, elapsed) :]

    def next_active_time(self, now: float) -> float | None:
        return self.forecast(now)[1]

    def idle_deadline(self, now: float) -> float | None:
        return self.forecast(now)[2]

    def active_rate(self) -> float | None:
        return self._active_ewma

    def forecast(self, now: float) -> tuple[float | None, float | None, float | None, float | None]:
        # Both timing answers read one conditional gap set.
        if self.last_active_time is None or len(self.gaps) < self.min_samples:
            return None, None, None, self._active_ewma
        candidates = self._conditional_gaps(max(0.0, now - self.last_active_time))
        if not candidates:
            # Idle longer than every recorded gap: prediction withdrawn, and
            # the keep-alive window is over (scale to zero now).
            return None, None, now, self._active_ewma
        keepalive = max(self._percentile(candidates, self.tail_pct), self.min_keepalive_s)
        return (
            None,
            self.last_active_time + self._percentile(candidates, self.head_pct),
            self.last_active_time + keepalive,
            self._active_ewma,
        )

    def quiet_until(self, now: float) -> float:
        """The answers change only when the idle time passes the next
        recorded gap above it, which drops that gap from the conditional
        set; with no gap above it (or too few samples) they never do."""
        if self.last_active_time is None or len(self.gaps) < self.min_samples:
            return math.inf
        elapsed = max(0.0, now - self.last_active_time)
        index = bisect.bisect_right(self.gaps, elapsed)
        if index == len(self.gaps):
            return math.inf
        return self.last_active_time + self.gaps[index]


class OracleForecaster(Forecaster):
    """Reads the future from the trace being replayed (experiment upper bound).

    ``origin`` is the replay start time (the engine time at which trace
    offset 0 begins); experiments set it after warm-up, before the load
    generators start.
    """

    def __init__(self, trace: "FunctionTrace", lead_s: float = 3.0, bin_s: float = 1.0):
        super().__init__(bin_s)
        if lead_s <= 0:
            raise ValueError("lead_s must be positive")
        self.trace = trace
        self.lead_s = lead_s
        self.origin = 0.0

    def observe(self, bin_index: int, count: int) -> None:  # oracle needs no history
        pass

    def _rate_at(self, rel: float) -> float:
        if rel < 0 or rel >= self.trace.duration:
            return 0.0
        return self.trace.counts[int(rel // self.trace.bin_s)] / self.trace.bin_s

    def predict_rps(self, now: float) -> float | None:
        rel = now - self.origin
        step = self.trace.bin_s / 2.0
        points = max(2, int(math.ceil(self.lead_s / step)) + 1)
        return max(self._rate_at(rel + i * step) for i in range(points))

    def next_active_time(self, now: float) -> float | None:
        rel = max(0.0, now - self.origin)
        if self._rate_at(rel) > 0:
            return now
        start = int(rel // self.trace.bin_s) + 1
        for index in range(start, len(self.trace.counts)):
            if self.trace.counts[index] > 0:
                return self.origin + index * self.trace.bin_s
        return None

    def idle_deadline(self, now: float) -> float | None:
        upcoming = self.next_active_time(now)
        if upcoming is None:
            return now  # nothing ever again: scale to zero immediately
        if upcoming - now > self.lead_s:
            return now  # long silence ahead; pre-warm will cover the return
        return None  # activity imminent: stay up

    def active_rate(self) -> float | None:
        active = [c / self.trace.bin_s for c in self.trace.counts if c > 0]
        if not active:
            return None
        return sum(active) / len(active)


class CompositeForecaster(Forecaster):
    """Combine several predictors: max rate, earliest activity, latest
    (most conservative) idle deadline."""

    def __init__(self, parts: _t.Sequence[Forecaster], bin_s: float = 1.0):
        super().__init__(bin_s)
        if not parts:
            raise ValueError("composite needs at least one part")
        self.parts = tuple(parts)
        self.quiet_until_observed = all(p.quiet_until_observed for p in self.parts)

    def observe(self, bin_index: int, count: int) -> None:
        for part in self.parts:
            part.observe(bin_index, count)

    def predict_rps(self, now: float) -> float | None:
        return self.forecast(now)[0]

    def next_active_time(self, now: float) -> float | None:
        return self.forecast(now)[1]

    def idle_deadline(self, now: float) -> float | None:
        return self.forecast(now)[2]

    def active_rate(self) -> float | None:
        # The only answer that does not depend on the time.
        return _extreme((part.active_rate() for part in self.parts), max)

    def forecast(self, now: float) -> tuple[float | None, float | None, float | None, float | None]:
        # One forecast per part, combined answer by answer: the highest
        # rate, the earliest activity, the latest deadline.
        answers = [part.forecast(now) for part in self.parts]
        return (
            _extreme((a[0] for a in answers), max),
            _extreme((a[1] for a in answers), min),
            _extreme((a[2] for a in answers), max),
            _extreme((a[3] for a in answers), max),
        )

    def quiet_until(self, now: float) -> float:
        """Every part's answers hold until the earliest part's change."""
        return min(part.quiet_until(now) for part in self.parts)


def _extreme(values: _t.Iterable[float | None], pick) -> float | None:
    """``pick`` (max or min) of the known values; None when none is."""
    known = [v for v in values if v is not None]
    return pick(known) if known else None


def make_forecaster(
    kind: str,
    bin_s: float = 1.0,
    period_s: float | None = None,
    **kwargs,
) -> Forecaster:
    """Build one forecaster by kind (:data:`FORECASTER_KINDS`).

    ``hybrid`` composes Holt-EWMA with the histogram keep-alive policy (plus
    a seasonal predictor when ``period_s`` is given) — the default of the
    ``predictive`` autoscaling policy.
    """
    if kind == "ewma":
        return HoltEWMA(bin_s=bin_s, **kwargs)
    if kind == "seasonal":
        if period_s is None:
            raise ValueError("seasonal forecaster needs period_s")
        return SeasonalBins(period_s, bin_s=bin_s, **kwargs)
    if kind == "histogram":
        return HybridHistogram(bin_s=bin_s, **kwargs)
    if kind == "hybrid":
        parts: list[Forecaster] = [HoltEWMA(bin_s=bin_s), HybridHistogram(bin_s=bin_s)]
        if period_s is not None:
            parts.append(SeasonalBins(period_s, bin_s=bin_s))
        return CompositeForecaster(parts, bin_s=bin_s)
    raise ValueError(f"unknown forecaster kind {kind!r}; known: {FORECASTER_KINDS}")
