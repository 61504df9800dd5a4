"""The measured window: every count starts when it opens, in both modes.

The simulator and the live server measure through one
:class:`~repro.scenario.runner.MeasuredWindow`; a report's ``events`` are
the growth of :func:`~repro.scenario.runner.control_counts` from the
window's open (or its warm-up restart) to its close.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

import repro.scenario.runner as runner
import repro.serve.server as server_module
from repro.scenario import load_scenario, run_scenario
from repro.serve import LiveServer, ServeConfig, http
from repro.sweep import load_sweep
from repro.sweep.runner import cell_metrics
from tests.pins import ROOT, quick_pin_report
from tests.serve.liveutils import tiny_scenario  # noqa: F401  (fixture)

COUNTS = (
    "scale_ups",
    "scale_downs",
    "nofit",
    "prewarms",
    "promotions",
    "retirements",
    "swap_promotions",
    "demotions",
    "host_evictions",
    "migrations",
    "migration_aborts",
)


def record_planes(monkeypatch, module) -> list:
    """Every ControlPlane ``module``'s ``prepare_control_plane`` returns."""
    planes = []
    prepare = module.prepare_control_plane

    def recording(scenario, platform):
        planes.append(prepare(scenario, platform))
        return planes[-1]

    monkeypatch.setattr(module, "prepare_control_plane", recording)
    return planes


def scheduler_actions(plane, t0: float) -> dict[str, int]:
    """The scaling decisions after ``t0`` (one at ``t0`` precedes the open)."""
    actions = [event.action for event in plane.scheduler.events if event.time > t0]
    return {
        "scale_ups": actions.count("up"),
        "scale_downs": actions.count("down"),
        "nofit": actions.count("nofit"),
    }


def test_window_without_warmup_counts_from_its_open(monkeypatch):
    planes = record_planes(monkeypatch, runner)
    scenario = load_scenario(str(ROOT / "examples" / "scenarios" / "cold_bursty.json"))
    report = run_scenario(scenario, quick=True)
    (plane,) = planes
    # The scheduler scaled down while deploying, before any request arrived:
    # that happened before the window opened, so it is not counted.
    early = [e for e in plane.scheduler.events if e.action == "down" and e.time <= report.t0]
    assert early
    assert report.events["scale_downs"] == 4
    counted = {name: report.events[name] for name in ("scale_ups", "scale_downs", "nofit")}
    assert counted == scheduler_actions(plane, report.t0)


def _longtail_swap():
    return load_scenario(str(ROOT / "examples" / "scenarios" / "longtail_swap.json")).quick()


def _migrate_cell():
    sweep = load_sweep(str(ROOT / "examples" / "benches" / "migrate_quick.json"))
    (cell,) = [cell for cell in sweep.cells() if cell.key == "defrag=0.3"]
    return cell.scenario


@pytest.mark.parametrize(
    "make, warmup_s, tier",
    [
        (_longtail_swap, 30.0, ("swap_promotions", "demotions")),
        (_migrate_cell, 10.0, ("migrations",)),
    ],
    ids=["longtail_swap", "migrate"],
)
def test_warmup_window_counts_from_warmup_end(monkeypatch, make, warmup_s, tier):
    snapshots = []
    restart, reduce = runner.MeasuredWindow.restart, runner.MeasuredWindow.report

    def snapshot(window) -> None:
        snapshots.append(runner.control_counts(window.plane.platform, window.plane.scheduler))

    def recording_restart(window) -> None:
        restart(window)
        snapshot(window)

    def recording_report(window, **kwargs):
        snapshot(window)
        return reduce(window, **kwargs)

    monkeypatch.setattr(runner.MeasuredWindow, "restart", recording_restart)
    monkeypatch.setattr(runner.MeasuredWindow, "report", recording_report)
    planes = record_planes(monkeypatch, runner)
    scenario = make()
    measurement = dataclasses.replace(scenario.measurement, warmup_s=warmup_s)
    report = run_scenario(dataclasses.replace(scenario, measurement=measurement))

    opened, warm, closed = snapshots
    assert tuple(report.events) == tuple(opened) == COUNTS
    assert report.events == {name: closed[name] - warm[name] for name in COUNTS}
    # The tier acted both during the warm-up, which stays out, and after it.
    for name in tier:
        assert warm[name] > opened[name]
        assert report.events[name] > 0
    for name, count in scheduler_actions(planes[0], report.t0).items():
        assert report.events[name] == count


def test_live_window_counts_from_serve_start(monkeypatch, tiny_scenario):
    planes = record_planes(monkeypatch, server_module)

    async def serve_and_drain():
        server = LiveServer(tiny_scenario, ServeConfig(port=0))
        await server.start()
        try:
            drained = await http.request("127.0.0.1", server.port, "POST", "/drain", timeout=60)
            assert drained.status == 200
            return server.report
        finally:
            await server.aclose()

    report = asyncio.run(serve_and_drain())
    (plane,) = planes
    assert tuple(report.events) == COUNTS
    for name, count in scheduler_actions(plane, report.t0).items():
        assert report.events[name] == count


def test_optional_counts_show_only_where_their_subsystem_acted():
    report = quick_pin_report("benchmarks/BENCH_scenario_quick.json")
    quiet = dict(report.events, **{name: 0 for name in COUNTS[6:]})
    busy = dict(quiet, demotions=3, migrations=5, migration_aborts=2)

    def variant(events):
        return dataclasses.replace(report, events=events)

    assert set(variant(quiet).to_dict()["events"]) == set(COUNTS[:6])
    # The events block drops each zero optional count on its own ...
    assert set(variant(busy).to_dict()["events"]) == {*COUNTS[:6], "demotions", *COUNTS[9:]}
    # ... while the summary and the cell metrics show a subsystem's group whole.
    line = next(line for line in variant(busy).summary().splitlines() if "events:" in line)
    assert line.endswith(" / 0 swap-in / 3 demote / 0 evict-host / 5 migrate (2 aborted)")
    metrics = cell_metrics(variant(busy))
    assert metrics["nofit_events"] == report.events["nofit"] and "nofit" not in metrics
    optional = COUNTS[6:]
    assert {name: metrics[name] for name in optional} == {name: busy[name] for name in optional}
    assert {"swap_hit_requests", "swap_wait_ms_mean"} <= set(metrics)
    quiet_metrics = cell_metrics(variant(quiet))
    assert not set(quiet_metrics) & {*optional, "swap_hit_requests", "swap_wait_ms_mean"}
