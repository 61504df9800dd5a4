"""Property tests of the forecaster quiescence contract and its hook.

The controller puts a function to sleep, skipping its ingest and views,
until the earliest instant its plan could change.  That is exact only if
every forecaster keeps its answers while no traffic arrives: once
``next_active_time`` returns ``None`` it stays ``None`` until a non-empty
bin is observed, and ``idle_deadline`` keeps its verdict (``None`` stays
``None``, a passed deadline stays passed).  ``quiet_until`` extends that to
forecasts naming a next activity: until the instant it returns, both
answers hold and ``predict_rps`` does not rise.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.autoscaler.forecast import OracleForecaster, make_forecaster
from repro.faas.traces import FunctionTrace

KINDS = ("ewma", "seasonal", "histogram", "hybrid", "oracle")

# Sparse streams: long runs of empty bins between small clumps.
bin_streams = st.lists(st.sampled_from((0, 0, 0, 0, 0, 0, 1, 2, 7)), min_size=5, max_size=120)


def build(kind: str, counts: list[int], bin_s: float):
    if kind == "oracle":
        trace = FunctionTrace("fn", "resnet50", tuple(counts), bin_s)
        return OracleForecaster(trace, bin_s=bin_s)
    # hybrid without a period: the seasonal part alone would keep it from
    # ever going quiet again (it is checked on its own).
    period_s = 12.0 * bin_s if kind == "seasonal" else None
    return make_forecaster(kind, bin_s=bin_s, period_s=period_s)


def verdict(deadline: float | None, now: float) -> str:
    if deadline is None:
        return "none"
    return "passed" if deadline <= now else "ahead"


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(
    counts=bin_streams,
    bin_s=st.sampled_from((0.5, 1.0, 2.0)),
    tick_s=st.sampled_from((0.5, 1.0, 2.0, 3.0)),
    offset=st.floats(0.0, 0.99),
)
def test_no_next_activity_stays_so_until_traffic(kind, counts, bin_s, tick_s, offset):
    forecaster = build(kind, counts, bin_s)
    bins = {index: count for index, count in enumerate(counts) if count}
    quiet_since: str | None = None  # the idle-deadline verdict when it went quiet
    checked_until = len(counts) * bin_s + 40.0  # well past the last bin
    tick = ingested = 0
    while (now := tick * tick_s + offset * tick_s) < checked_until:
        tick += 1
        upto = int(now // bin_s)
        observed = any(bins.get(i) for i in range(ingested, upto))
        forecaster.ingest(bins, upto)
        ingested = max(ingested, upto)
        if observed and kind != "oracle":
            quiet_since = None  # traffic returned: the contract restarts
        next_active = forecaster.next_active_time(now)
        now_verdict = verdict(forecaster.idle_deadline(now), now)
        if quiet_since is not None:
            assert next_active is None
            if quiet_since in ("none", "passed"):
                assert now_verdict == quiet_since
        elif next_active is None:
            quiet_since = now_verdict


def answers(forecaster, now: float) -> tuple:
    return (
        forecaster.predict_rps(now),
        forecaster.next_active_time(now),
        forecaster.idle_deadline(now),
        forecaster.active_rate(),
    )


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(
    counts=bin_streams,
    bin_s=st.sampled_from((0.5, 1.0, 2.0)),
    tick_s=st.sampled_from((0.5, 1.0, 2.0, 3.0)),
    offset=st.floats(0.0, 0.99),
)
def test_answers_hold_until_quiet_until(kind, counts, bin_s, tick_s, offset):
    """From every tick, the later ticks before ``quiet_until`` with no new
    traffic see the same next activity, the same idle deadline (or one
    still passed) and no higher rate; ``forecast`` is the four answers."""
    forecaster = build(kind, counts, bin_s)
    bins = {index: count for index, count in enumerate(counts) if count}
    promise = None  # (quiet_until, now, next_active, deadline, rate) at the promise
    checked_until = len(counts) * bin_s + 40.0
    tick = ingested = promises = 0
    while (now := tick * tick_s + offset * tick_s) < checked_until:
        tick += 1
        upto = int(now // bin_s)
        if any(bins.get(i) for i in range(ingested, upto)) and kind != "oracle":
            promise = None  # traffic returned: every promise is off
        forecaster.ingest(bins, upto)
        ingested = max(ingested, upto)
        assert forecaster.forecast(now) == answers(forecaster, now)
        rate, next_active, deadline, _ = answers(forecaster, now)
        if promise is not None and now < promise[0]:
            _, then, promised_active, promised_deadline, promised_rate = promise
            assert next_active == promised_active
            if promised_deadline is not None and promised_deadline <= then:
                assert deadline is not None and deadline <= now
            else:
                assert deadline == promised_deadline
            assert (rate or 0.0) <= (promised_rate or 0.0)
            continue
        promise = (forecaster.quiet_until(now), now, next_active, deadline, rate)
        promises += promise[0] > now
    if kind in ("ewma", "histogram", "hybrid"):
        assert promises  # these do promise something
