"""End-to-end: the activity-proportional tick reports byte-identically.

The differential twin switches both shortcuts off without a knob: every
function counts as awake (viewed, ingested and gap-checked every tick) and
every GPU counts as changed (restructured on every cluster-wide miss), which
is the control tick before it scaled with activity.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.autoscaler.controller import PredictiveAutoscaler
from repro.scenario import load_scenario
from repro.scenario.runner import run_scenario
from repro.scheduler import GPURectangleList
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_identical_with_every_function_awake_and_every_gpu_dirty(monkeypatch, case):
    path, quick = CASES[case]
    scenario = prewarm_oracle_cell() if path is None else load_scenario(str(path))
    fast = run_scenario(scenario, quick=quick).to_json()

    views = []
    view = PredictiveAutoscaler._view

    def counted_view(self, now, name):
        views.append(name)
        return view(self, now, name)

    monkeypatch.setattr(PredictiveAutoscaler, "dormant", lambda self, function: False)
    monkeypatch.setattr(PredictiveAutoscaler, "_view", counted_view)
    always_dirty = property(lambda self: False, lambda self, value: None)
    monkeypatch.setattr(GPURectangleList, "clean", always_dirty, raising=False)
    slow = run_scenario(scenario, quick=quick).to_json()
    assert slow == fast
    if scenario.autoscaler.policy != "reactive":
        # The twin really viewed every function on every tick.
        assert set(views) == {fn.name for fn in scenario.functions}
