"""End-to-end: the activity-proportional tick reports byte-identically.

The differential twin switches both shortcuts off without a knob: every
function counts as awake (viewed, ingested and gap-checked every tick) and
every GPU counts as changed (restructured on every cluster-wide miss), which
is the control tick before it scaled with activity.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import json
import math
import pathlib

import pytest

from repro.autoscaler.controller import POLICIES, WAKE_EARLY_S, PredictiveAutoscaler
from repro.faas import requests
from repro.k8s import objects
from repro.manager import FaSTBackend
from repro.memtier.policy import MemTierPolicy
from repro.scenario import (
    AutoscalerSpec,
    ClusterSpec,
    MeasurementSpec,
    Scenario,
    ScenarioFunction,
    WorkloadSpec,
    load_scenario,
)
from repro.scenario.runner import run_scenario
from repro.scheduler import GPURectangleList, MaximalRectanglesScheduler, NoFitError
from repro.sim import Engine, Event
from repro.sweep import load_sweep

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def prewarm_oracle_cell():
    sweep = load_sweep(str(EXAMPLES / "benches" / "prewarm_quick.json"))
    (cell,) = [cell for cell in sweep.cells() if cell.key == "autoscaler=oracle"]
    return cell.scenario


CASES = {
    "longtail_swap-memtier": (EXAMPLES / "scenarios" / "longtail_swap.json", True),
    "cold_bursty-hybrid": (EXAMPLES / "scenarios" / "cold_bursty.json", True),
    "mixed_fleet-reactive": (EXAMPLES / "scenarios" / "mixed_fleet.json", True),
    "prewarm-oracle": (None, False),
}


def test_oracle_anchor_wakes_functions_asleep_during_deployment(monkeypatch):
    """Ticks run while the initial bert pod cold-starts, with the oracle
    trace still anchored at time 0: ``late``'s burst (trace offset 1-2 s)
    lies behind the first tick, so it falls asleep.  Anchoring the trace at
    replay start must wake it, so the oracle pre-warms ahead of the burst."""
    scenario = Scenario(
        name="oracle-anchor",
        seed=3,
        cluster=ClusterSpec(nodes=("V100",)),
        functions=(
            ScenarioFunction(
                name="warm",
                model="bert",
                initial_replicas=1,
                workload=WorkloadSpec(kind="counts", counts=(4,) * 24, bin_s=0.5),
            ),
            ScenarioFunction(
                name="late",
                model="resnet50",
                initial_replicas=0,
                workload=WorkloadSpec(kind="counts", counts=(0, 0, 6, 6) + (0,) * 20, bin_s=0.5),
            ),
        ),
        autoscaler=AutoscalerSpec(policy="oracle", interval=2.0),
        measurement=MeasurementSpec(drain_s=2.0, sample_dt=0.5),
    )
    fast = run_scenario(scenario).to_json()
    force_awake_and_dirty(monkeypatch)
    assert run_scenario(scenario).to_json() == fast


def count_views(monkeypatch) -> list[tuple[float, str]]:
    """Record every ``(now, function)`` the controller views from here on."""
    views: list[tuple[float, str]] = []
    view = PredictiveAutoscaler._view

    def counted_view(self, now, name):
        views.append((now, name))
        return view(self, now, name)

    monkeypatch.setattr(PredictiveAutoscaler, "_view", counted_view)
    return views


def force_awake_and_dirty(monkeypatch) -> list[tuple[float, str]]:
    """Switch both shortcuts off; returns the twin's view record."""
    monkeypatch.setattr(PredictiveAutoscaler, "dormant", lambda self, function: False)
    # Push wake asks dormant() about touched or due sleepers only: make
    # every sleeper a candidate, so every function wakes on every tick.
    monkeypatch.setattr(PredictiveAutoscaler, "_candidates", lambda self, now: list(self._asleep))
    always_dirty = property(lambda self: False, lambda self, value: None)
    monkeypatch.setattr(GPURectangleList, "clean", always_dirty, raising=False)
    return count_views(monkeypatch)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_identical_with_every_function_awake_and_every_gpu_dirty(monkeypatch, case):
    path, quick = CASES[case]
    scenario = prewarm_oracle_cell() if path is None else load_scenario(str(path))
    fast = run_scenario(scenario, quick=quick).to_json()

    views = force_awake_and_dirty(monkeypatch)
    slow = run_scenario(scenario, quick=quick).to_json()
    assert slow == fast
    if scenario.autoscaler.policy != "reactive":
        # The twin really viewed every function on every tick.
        assert {name for _, name in views} == {fn.name for fn in scenario.functions}


def test_deadline_wake_reports_identically(monkeypatch):
    """longtail_swap under memtier with a 30 s host keep-alive: quick runs
    then cross the evict deadline, which only a timed wake can reach."""
    kind, _ = POLICIES["memtier"]
    short_host = functools.partial(MemTierPolicy, host_keepalive_s=30.0)
    monkeypatch.setitem(POLICIES, "memtier", (kind, short_host))
    scenario = load_scenario(str(EXAMPLES / "scenarios" / "longtail_swap.json"))
    assert scenario.autoscaler.policy == "memtier"
    fast = run_scenario(scenario, quick=True)
    assert fast.events["host_evictions"] > 0
    force_awake_and_dirty(monkeypatch)
    assert run_scenario(scenario, quick=True).to_json() == fast.to_json()


# -- steady sleepers reach each of their deadlines ------------------------------------
def clumps_scenario(interval: float = 1.0) -> Scenario:
    """Three functions with clumps every ~20 s: the histogram learns the
    gaps, so between clumps each steady function sleeps until a gap
    boundary, its expiry, its spare window or the lead before the next
    clump.  An interval off the 1 s bins lands arrivals in the bin still
    open at a tick."""
    counts = ((4,) * 3 + (0,) * 17) * 5
    return Scenario(
        name="deadlines",
        seed=3,
        cluster=ClusterSpec(nodes=("V100",)),
        functions=tuple(
            ScenarioFunction(
                name=f"f{i}",
                model=model,
                initial_replicas=1,
                workload=WorkloadSpec(kind="counts", counts=counts[i:] + counts[:i], bin_s=1.0),
            )
            for i, model in enumerate(("resnet50", "bert", "resnet50"))
        ),
        autoscaler=AutoscalerSpec(policy="hybrid", interval=interval),
        measurement=MeasurementSpec(drain_s=2.0, sample_dt=1.0),
    )


def crowded_longtail() -> Scenario:
    """Quick longtail_swap on two GPUs: pre-warms find no fit, and the
    back-off drops them for a while."""
    scenario = load_scenario(str(EXAMPLES / "scenarios" / "longtail_swap.json")).quick()
    return dataclasses.replace(
        scenario, cluster=dataclasses.replace(scenario.cluster, nodes=("V100",) * 2)
    )


def deadline_kinds(autoscaler, now, view, backed_off, wake_at) -> set[str]:
    """The deadlines a sleep's wake time stands for (one instant may be
    several)."""
    policy = autoscaler.policy
    forecaster = autoscaler.forecasters.get(view.function)
    deadlines = {"expiry": policy._expiry(view)}
    if forecaster is not None:
        deadlines["forecast"] = forecaster.quiet_until(now)
    if view.last_arrival is not None:
        deadlines["spare"] = view.last_arrival + policy.spare_keepalive_s
    if view.next_active is not None:
        deadlines["lead"] = view.next_active - policy.lead_time(view)
    if backed_off:
        deadlines["backoff"] = autoscaler._nofit_until[view.function]
    return {
        kind
        for kind, deadline in deadlines.items()
        if deadline is not None and deadline - WAKE_EARLY_S == wake_at
    }


def record_sleeps(monkeypatch) -> dict[str, collections.Counter]:
    """Count, by deadline kind, the deadlines sleepers reach (due while the
    function still sleeps on them), and the ticks the tick left a function
    awake with its last arrival in the bin still open."""
    stats = {"reached": collections.Counter(), "open_bin": collections.Counter()}
    sleeps: dict[str, tuple] = {}
    sleep = PredictiveAutoscaler._sleep_if_steady
    candidates = PredictiveAutoscaler._candidates

    def recording_sleep(self, now, view, backed_off):
        sleep(self, now, view, backed_off)
        record = self._asleep.get(view.function)
        if record is None:
            bin_s = self.gateway.rps_bin_s
            last = view.last_arrival
            if last is not None and math.floor(last / bin_s) >= now // bin_s:
                stats["open_bin"][view.function] += 1
        elif sleeps.get(view.function, (None,))[0] is not record:
            kinds = deadline_kinds(self, now, view, backed_off, record[-1])
            sleeps[view.function] = (record, kinds)

    def recording_candidates(self, now):
        for wake_at, name in self._deadlines:
            record, kinds = sleeps.get(name, (None, ()))
            if wake_at <= now and record is not None and self._asleep.get(name) is record:
                stats["reached"].update(kinds)
        return candidates(self, now)

    monkeypatch.setattr(PredictiveAutoscaler, "_sleep_if_steady", recording_sleep)
    monkeypatch.setattr(PredictiveAutoscaler, "_candidates", recording_candidates)
    return stats


@pytest.mark.parametrize(
    "build, deadlines",
    [
        (clumps_scenario, {"forecast", "expiry", "spare", "lead"}),
        (functools.partial(clumps_scenario, interval=1.5), {"forecast", "lead"}),
        (crowded_longtail, {"backoff", "forecast", "expiry", "spare"}),
    ],
)
def test_steady_sleepers_reach_each_deadline_exactly(monkeypatch, build, deadlines):
    """Steady sleepers (holding pods) really reach each kind of deadline, and
    the report equals the forced-awake twin's, which views strictly more."""
    scenario = build()
    with monkeypatch.context() as patch:
        stats = record_sleeps(patch)
        views = count_views(patch)
        fast = run_scenario(scenario).to_json()
    assert deadlines <= set(stats["reached"])
    if scenario.autoscaler.interval != 1.0:
        # Arrivals in the bin still open at a tick kept their function awake.
        assert stats["open_bin"]
    twin_views = force_awake_and_dirty(monkeypatch)
    assert run_scenario(scenario).to_json() == fast
    assert len(twin_views) > len(views)


def test_only_dropped_prewarms_let_a_function_sleep(monkeypatch):
    """A pre-warm the tick attempted (placed or no fit) is an action: only
    the back-off dropping every pre-warm of a function lets it sleep."""
    attempted: set[str] = set()
    apply_prewarm = PredictiveAutoscaler._apply_prewarm
    on_tick = PredictiveAutoscaler.on_tick
    checked = collections.Counter()

    def recording_prewarm(self, action):
        tried = apply_prewarm(self, action)
        if tried:
            attempted.add(action.function)
        else:
            checked["dropped"] += 1
        return tried

    def checking_on_tick(self):
        attempted.clear()
        on_tick(self)
        for name in attempted:
            assert name not in self._asleep
        checked["attempted"] += len(attempted)

    monkeypatch.setattr(PredictiveAutoscaler, "_apply_prewarm", recording_prewarm)
    monkeypatch.setattr(PredictiveAutoscaler, "on_tick", checking_on_tick)
    run_scenario(crowded_longtail())
    assert checked["attempted"] and checked["dropped"]


def test_sleepers_emit_no_tick_rows(monkeypatch):
    """With telemetry on, the stream is the forced-awake twin's minus the
    ``autoscaler``/``tick`` rows of functions that were asleep."""
    scenario = load_scenario(str(EXAMPLES / "scenarios" / "longtail_swap.json"))
    scenario = dataclasses.replace(
        scenario, measurement=dataclasses.replace(scenario.measurement, telemetry=True)
    )

    def run():
        # Pod and request ids are process-wide serials; restart them so the
        # two streams compare.
        monkeypatch.setattr(objects, "_uid_counter", itertools.count(1))
        monkeypatch.setattr(requests, "_request_ids", itertools.count(1))
        return json.loads(run_scenario(scenario, quick=True).to_json())

    with monkeypatch.context() as patch:
        views = count_views(patch)
        fast = run()
    viewed = set(views)
    force_awake_and_dirty(monkeypatch)
    slow = run()

    def is_sleeper_tick(event) -> bool:
        return (
            event["source"] == "autoscaler"
            and event["kind"] == "tick"
            and (event["time"], event["function"]) not in viewed
        )

    fast_events = fast["telemetry"].pop("events")
    slow_events = slow["telemetry"].pop("events")
    kept = [event for event in slow_events if not is_sleeper_tick(event)]
    assert len(kept) < len(slow_events)
    assert kept == fast_events
    # The only other difference is the gauge counting the stream itself.
    for report, events in ((fast, fast_events), (slow, slow_events)):
        gauge = report["telemetry"]["metrics"]["gauges"].pop("repro_telemetry_events")
        assert gauge == [{"labels": {}, "value": float(len(events))}]
    assert slow == fast


def test_view_count_pin(monkeypatch):
    """Work-counter pin: the exact number of views on quick longtail_swap
    (3,538 when every invoked function was viewed every tick; 1,026 when
    only idle functions holding no replica slept, before steady functions
    holding pods slept too).  A change that moves it explains the new
    count."""
    views = count_views(monkeypatch)
    run_scenario(load_scenario(str(EXAMPLES / "scenarios" / "longtail_swap.json")), quick=True)
    assert len(views) == 897


def test_idle_work_counter_pins(monkeypatch):
    """Work-counter pins on quick longtail_swap: per-backend window rolls
    (5,130 when every backend rolled every window), engine schedules (14,737
    when every process resume was deferred and every window rolled) and
    ``dormant()`` calls (35,260 when every sleeper was polled every tick;
    34 when only idle functions holding no replica slept: steady sleepers
    are touched by their own pods and promotions and reach more deadlines,
    so more of them are asked).  A change that moves one explains the new
    count."""
    counts = {"rolls": 0, "schedules": 0, "dormant": 0}

    def counting(cls, name, key):
        method = getattr(cls, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return method(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    counting(FaSTBackend, "_decay", "rolls")
    counting(Engine, "schedule_at", "schedules")
    counting(PredictiveAutoscaler, "dormant", "dormant")
    run_scenario(load_scenario(str(EXAMPLES / "scenarios" / "longtail_swap.json")), quick=True)
    assert counts == {"rolls": 360, "schedules": 7756, "dormant": 103}


def test_placement_probe_pins(monkeypatch):
    """Work-counter pins on quick longtail_swap: free-list probes
    (``GPURectangleList.best_fit`` calls; 493 when no GPU was ruled out by
    its widest and tallest free extents), ``NoFitError``s raised (44 when
    each config that fit nowhere raised one; a pre-warm's configs are now
    one query) and ``select_node`` calls and misses (148 and 44 when the
    query tried every config; a config no smaller than one that missed is
    now skipped).  A change that moves one explains the new count."""
    counts = {"best_fit": 0, "nofit": 0, "select_node": 0, "misses": 0}
    best_fit = GPURectangleList.best_fit
    nofit = NoFitError.__init__
    select_node = MaximalRectanglesScheduler.select_node

    def counted_best_fit(self, w, h):
        counts["best_fit"] += 1
        return best_fit(self, w, h)

    def counted_nofit(self, *args):
        counts["nofit"] += 1
        nofit(self, *args)

    def counted_select_node(self, *args, **kwargs):
        counts["select_node"] += 1
        choice = select_node(self, *args, **kwargs)
        counts["misses"] += choice is None
        return choice

    monkeypatch.setattr(GPURectangleList, "best_fit", counted_best_fit)
    monkeypatch.setattr(NoFitError, "__init__", counted_nofit)
    monkeypatch.setattr(MaximalRectanglesScheduler, "select_node", counted_select_node)
    run_scenario(load_scenario(str(EXAMPLES / "scenarios" / "longtail_swap.json")), quick=True)
    assert counts == {"best_fit": 408, "nofit": 0, "select_node": 136, "misses": 32}


def test_request_path_work_counter_pins(monkeypatch):
    """Work-counter pins on quick mixed_fleet, the request-heavy scenario:
    engine schedules (33,226, the same as when every host gap and arrival
    wait built a ``Timeout``) and ``Event`` constructions, Timeouts and
    processes included (22,181 when they did; a process sleeping on a bare
    delay builds none).  A change that moves one explains the new count."""
    counts = {"schedules": 0, "events": 0}
    for cls, name, key in ((Engine, "schedule_at", "schedules"), (Event, "__init__", "events")):
        method = getattr(cls, name)

        def counted(*args, _method=method, _key=key, **kwargs):
            counts[_key] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    run_scenario(load_scenario(str(EXAMPLES / "scenarios" / "mixed_fleet.json")), quick=True)
    assert counts == {"schedules": 33226, "events": 11095}
