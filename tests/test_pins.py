"""Invariants every committed report pin must satisfy."""

from __future__ import annotations

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
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
