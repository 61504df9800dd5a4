"""The figure modules reproduce their committed quick bench pins byte for byte.

``run fig14/fig15 --quick`` builds its bench sweep in
``fig14_cluster.bench_sweep`` / ``fig15_prewarm.bench_sweep`` and returns
the SweepReport, which must equal ``benchmarks/BENCH_{cluster,prewarm}_quick.json``
exactly (``tests/test_pins.py`` replays the committed spec files themselves);
``fig11_scheduler.bench_sweep``'s quick sweep must equal
``benchmarks/BENCH_fig11_quick.json``, and ablation A2's quick rows are the
cells of ``benchmarks/BENCH_tokens_quick.json``.  Any drift means a refactor
changed behaviour, not just structure.
"""

from __future__ import annotations

import json
import pathlib

from repro.experiments import ablations, fig11_scheduler, fig14_cluster, fig15_prewarm
from repro.sweep import run_sweep

PINS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def test_fig14_quick_matches_pre_refactor_baseline():
    report = fig14_cluster.run(quick=True)
    assert report.to_json() == (PINS / "BENCH_cluster_quick.json").read_text()


def test_fig15_quick_matches_pre_sweep_baseline():
    report = fig15_prewarm.run(quick=True)
    assert report.to_json() == (PINS / "BENCH_prewarm_quick.json").read_text()


def test_fig14_scenarios_differ_only_in_placement_policy():
    """The per-policy Scenarios are identical specs up to the policy field."""
    scenarios = {
        dict(cell.coords)["placement"]: cell.scenario.to_dict()
        for cell in fig14_cluster.bench_sweep(quick=True).cells()
    }
    assert set(scenarios) == {"binpack", "spread", "affinity"}
    a = scenarios["binpack"]
    for policy in ("spread", "affinity"):
        b = scenarios[policy]
        assert a["functions"] == b["functions"]
        assert a["cluster"] == b["cluster"]
        assert b["autoscaler"]["placement"] == policy
    # to_dict omits defaulted fields, so binpack (the default) is implicit.
    assert a["autoscaler"].get("placement", "binpack") == "binpack"


def test_fig11_quick_sweep_is_its_pin():
    report = run_sweep(fig11_scheduler.bench_sweep(quick=True))
    assert report.to_json() == (PINS / "BENCH_fig11_quick.json").read_text()


def test_fig11_cells_differ_only_in_sharing():
    cells = [cell.scenario.to_dict() for cell in fig11_scheduler.bench_sweep(quick=True).cells()]
    assert [c["cluster"].pop("sharing") for c in cells] == ["timeshare", "fast"]
    assert [c.pop("name") for c in cells] == ["fig11[sharing=timeshare]", "fig11[sharing=fast]"]
    assert cells[0] == cells[1]


def test_token_ablation_rows_are_the_tokens_quick_pin():
    cells = json.loads((PINS / "BENCH_tokens_quick.json").read_text())["cells"]
    rows = ablations.run_token_ablation(quick=True)
    assert [row.backend for row in rows] == ["multi-token (FaST)", "single-token (KubeShare)"]
    assert [row.p95_ms for row in rows] == [cell["metrics"]["p95_ms"] for cell in cells]
    assert [row.throughput for row in rows] == [
        cell["report"]["functions"]["fn"]["completed"] / 5.0 for cell in cells
    ]
