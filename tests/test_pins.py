"""Every committed report pin reproduces exactly, and satisfies its invariants."""

from __future__ import annotations

import json
import pathlib

import pytest

from tests.pins import FULL_BENCHES, QUICK_PINS, ROOT, SERVE_GATE, quick_pin_report

PINS = sorted([*ROOT.glob("BENCH_*.json"), *(ROOT / "benchmarks").glob("BENCH_*.json")])


def counts(pin: dict):
    """Yield (where, submitted, completed) for every tally in a pin: a
    scenario report's totals and functions, each sweep cell's metrics plus
    its embedded report, and a live-serving pin's reference run."""

    def report_counts(report: dict, where: str):
        yield f"{where}totals", report["totals"]["submitted"], report["totals"]["completed"]
        for name, fn in report["functions"].items():
            yield f"{where}functions.{name}", fn["submitted"], fn["completed"]

    if "cells" in pin:
        for cell in pin["cells"]:
            metrics = cell["metrics"]
            yield f"{cell['key']}: metrics", metrics["submitted"], metrics["completed"]
            yield from report_counts(cell["report"], f"{cell['key']}: ")
    elif "reference" in pin:
        yield "reference", pin["reference"]["submitted"], pin["reference"]["completed"]
    else:
        yield from report_counts(pin, "")


@pytest.mark.parametrize("pin", sorted(QUICK_PINS), ids=lambda pin: pathlib.Path(pin).name)
def test_quick_pin_reproduces_byte_for_byte(pin):
    assert quick_pin_report(pin).to_json() == (ROOT / pin).read_text()


def test_every_pin_has_an_exact_check():
    """A new pin needs a producer in tests/pins.py, so no pin can be
    committed that nothing reproduces exactly."""
    committed = {path.relative_to(ROOT).as_posix() for path in PINS}
    full = {f"BENCH_{name}.json" for name in FULL_BENCHES}
    assert committed == {*QUICK_PINS, *full, SERVE_GATE}
    matrix = f"bench: [{', '.join(FULL_BENCHES)}]"
    assert matrix in (ROOT / ".github" / "workflows" / "ci.yml").read_text()


def test_serve_gate_reference_is_the_des_pin():
    """The live gate's reference counters are the quick cold_bursty DES run."""
    gate = json.loads((ROOT / SERVE_GATE).read_text())
    des = json.loads((ROOT / "benchmarks" / "BENCH_scenario_quick.json").read_text())
    assert [gate["scenario"], gate["quick"]] == [des["scenario"]["name"], des["quick"]]
    reference, totals = gate["reference"], des["totals"]
    for key in ("submitted", "completed", "slo_violation_ratio"):
        assert reference[key] == totals[key], key
    assert reference["p95_latency_ms"] == round(totals["p95_ms"], 2)


def test_every_report_kind_is_covered():
    assert len(PINS) >= 10
    for path in PINS:
        assert list(counts(json.loads(path.read_text()))), path.name


@pytest.mark.parametrize("path", PINS, ids=lambda path: path.name)
def test_pin_never_completes_more_than_it_submits(path):
    """A measured window counts as completed only requests it counted as
    submitted, so no tally may complete more than it submitted."""
    over = [
        f"{where} {completed}/{submitted}"
        for where, submitted, completed in counts(json.loads(path.read_text()))
        if completed > submitted
    ]
    assert not over, over
