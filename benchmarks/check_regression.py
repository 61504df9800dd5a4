#!/usr/bin/env python
"""Benchmark-regression gate for CI.

Compares a freshly measured benchmark report against the committed baseline
and fails (exit 1) on a regression beyond the tolerance.  The report kind is
dispatched on the baseline's ``benchmark`` field:

* ``scenario`` — a ScenarioReport (``python -m repro scenario ... --output``).
  Simulated metrics are deterministic for a given seed, so the gate fails
  when the overall or any per-function SLO-violation rate grows past the
  tolerance (plus a small absolute epsilon for near-zero rates), or when
  the completed-request count drops by more than the tolerance.  Baseline
  and fresh must replay the same scenario name/seed.
* ``sweep`` — a SweepReport (``python -m repro sweep ... --output``), which
  also covers the committed bench specs (``examples/benches/*.json``).
  Cells are matched on their grid coordinates; the gate fails when any
  matched cell's SLO-violation rate grows past the tolerance (plus the
  epsilon), its completed-request count drops by more than the tolerance,
  or its GPU-seconds grow by more than the tolerance, and when the fresh
  report records a failed ``assert`` entry.  Baseline and fresh must run
  the same sweep name, base seed, cluster and fleet size, and every
  baseline cell must still exist in the fresh grid.
* ``serve`` — the live serving smoke (``BENCH_serve_quick.json`` vs a fresh
  ``repro replay`` output).  A live run is wall-clock paced, so unlike every
  other kind it is *not* bit-deterministic: the gate checks robust counters
  only — the arrival schedule is seed-derived and must match the committed
  reference (within a small fraction for client-side retries), the completed
  fraction must stay high, and the SLO-violation ratio must stay under an
  absolute bound documented in the baseline (the DES ratio plus a generous
  live-jitter margin).  The fresh report must be a ScenarioReport with
  ``mode: "live"``.

Usage::

    python benchmarks/check_regression.py \
        --baseline benchmarks/BENCH_swap_quick.json --fresh BENCH_swap_fresh.json \
        [--tolerance 0.30]
    python benchmarks/check_regression.py \
        --baseline benchmarks/BENCH_scenario_quick.json --fresh SCENARIO_fresh.json
"""

from __future__ import annotations

import argparse
import json
import sys

#: Absolute slack added to the violation-rate gates so near-zero baselines
#: (0.1% violations) don't fail on one extra late request.
ABS_EPSILON = 0.005


def load_report(
    path: str,
    kinds: tuple[str, ...] = ("scenario", "sweep", "serve"),
) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("benchmark") not in kinds:
        raise ValueError(f"{path}: not a known benchmark report (want one of {kinds})")
    return report


def relative_drop(baseline: float, fresh: float) -> float:
    """Fractional regression (positive = fresh is slower than baseline)."""
    if baseline <= 0:
        raise ValueError(f"non-positive baseline value {baseline}")
    return (baseline - fresh) / baseline


def check_scenario(baseline: dict, fresh: dict, tolerance: float) -> list[str]:
    """Scenario-report gate: overall + per-function SLO-violation regressions."""
    failures: list[str] = []
    base_meta = baseline.get("scenario") or {}
    fresh_meta = fresh.get("scenario") or {}
    key = ("name", "seed")
    base_id = [base_meta.get(k) for k in key] + [baseline.get("quick")]
    fresh_id = [fresh_meta.get(k) for k in key] + [fresh.get("quick")]
    if base_id != fresh_id:
        raise ValueError(
            "scenario mismatch: the gate compares deterministic replays of the "
            "same scenario name/seed at the same quick/full horizon — "
            f"baseline {base_id} vs fresh {fresh_id}"
        )

    def gate(label: str, base_rate: float, fresh_rate: float) -> None:
        bound = base_rate * (1.0 + tolerance) + ABS_EPSILON
        marker = "  [REGRESSION]" if fresh_rate > bound else ""
        print(
            f"slo_violation_ratio[{label:<18}]: baseline {100 * base_rate:6.2f}%   "
            f"fresh {100 * fresh_rate:6.2f}%   bound {100 * bound:6.2f}%{marker}"
        )
        if fresh_rate > bound:
            failures.append(
                f"{label}: SLO-violation rate regressed {100 * base_rate:.2f}% -> "
                f"{100 * fresh_rate:.2f}% (bound {100 * bound:.2f}%)"
            )

    gate(
        "overall",
        float(baseline["totals"]["slo_violation_ratio"]),
        float(fresh["totals"]["slo_violation_ratio"]),
    )
    shared = sorted(set(baseline["functions"]) & set(fresh["functions"]))
    if not shared:
        raise ValueError("no common functions between baseline and fresh scenario reports")
    for name in shared:
        gate(
            name,
            float(baseline["functions"][name]["slo_violation_ratio"]),
            float(fresh["functions"][name]["slo_violation_ratio"]),
        )

    base_completed = int(baseline["totals"]["completed"])
    fresh_completed = int(fresh["totals"]["completed"])
    if base_completed > 0:
        drop = relative_drop(base_completed, fresh_completed)
        note = "  [REGRESSION]" if drop > tolerance else ""
        print(
            f"completed            : baseline {base_completed:8d}   "
            f"fresh {fresh_completed:8d}   drop {100 * drop:+6.1f}%{note}"
        )
        if drop > tolerance:
            failures.append(
                f"completed requests dropped {100 * drop:.1f}% "
                f"({base_completed} -> {fresh_completed})"
            )
    return failures


def check_sweep(baseline: dict, fresh: dict, tolerance: float) -> list[str]:
    """Sweep-report gate: per-cell violation, completed and GPU-seconds
    regressions, plus the fresh report's ``assert`` verdicts."""
    failures: list[str] = []

    def identity(report: dict) -> list:
        # A bench's full and quick specs share a sweep name and seed; the
        # cluster shape and fleet size tell them apart.
        sweep = report.get("sweep") or {}
        base = sweep.get("base") or {}
        return [
            sweep.get("name"),
            base.get("seed"),
            report.get("quick"),
            (base.get("cluster") or {}).get("nodes"),
            len(base.get("functions") or ()),
        ]

    base_id, fresh_id = identity(baseline), identity(fresh)
    if base_id != fresh_id:
        raise ValueError(
            "sweep mismatch: the gate compares deterministic replays of the same "
            "sweep name/base seed/cluster/fleet at the same quick/full horizon — "
            f"baseline {base_id} vs fresh {fresh_id}"
        )
    base_cells = {cell["key"]: cell for cell in baseline.get("cells") or ()}
    fresh_cells = {cell["key"]: cell for cell in fresh.get("cells") or ()}
    if not base_cells:
        raise ValueError("baseline sweep report has no cells")
    missing = sorted(set(base_cells) - set(fresh_cells))
    if missing:
        raise ValueError(f"fresh sweep report is missing baseline cells: {missing}")
    for key in sorted(base_cells):
        base_metrics = base_cells[key]["metrics"]
        fresh_metrics = fresh_cells[key]["metrics"]
        base_rate = float(base_metrics["slo_violation_ratio"])
        fresh_rate = float(fresh_metrics["slo_violation_ratio"])
        bound = base_rate * (1.0 + tolerance) + ABS_EPSILON
        marker = "  [REGRESSION]" if fresh_rate > bound else ""
        print(
            f"slo_violation_ratio[{key:<38}]: baseline {100 * base_rate:6.2f}%   "
            f"fresh {100 * fresh_rate:6.2f}%   bound {100 * bound:6.2f}%{marker}"
        )
        if fresh_rate > bound:
            failures.append(
                f"{key}: SLO-violation rate regressed {100 * base_rate:.2f}% -> "
                f"{100 * fresh_rate:.2f}% (bound {100 * bound:.2f}%)"
            )
        base_completed = int(base_metrics["completed"])
        fresh_completed = int(fresh_metrics["completed"])
        if base_completed > 0:
            drop = relative_drop(base_completed, fresh_completed)
            if drop > tolerance:
                failures.append(
                    f"{key}: completed requests dropped {100 * drop:.1f}% "
                    f"({base_completed} -> {fresh_completed})"
                )
        base_cost = float(base_metrics["gpu_seconds"])
        fresh_cost = float(fresh_metrics["gpu_seconds"])
        if fresh_cost > base_cost * (1.0 + tolerance):
            failures.append(
                f"{key}: GPU-seconds grew {base_cost:.0f} -> {fresh_cost:.0f} "
                f"(> {100 * tolerance:.0f}% tolerance)"
            )
    for result in fresh.get("assert") or ():
        if not result["holds"]:
            failures.append(
                f"assertion failed: {result['cell']} vs {', '.join(result['vs'])}: "
                + "; ".join(result["failed"])
            )
    return failures


def check_serve(baseline: dict, fresh: dict, tolerance: float) -> list[str]:
    """Live-serve gate: robust counters of a wall-clock replay vs the baseline.

    ``baseline`` is a committed ``benchmark: "serve"`` gate file carrying the
    DES reference counters and absolute bounds; ``fresh`` is the live
    ScenarioReport ``repro replay --output`` wrote (``mode: "live"``).
    """
    failures: list[str] = []
    if fresh.get("mode") != "live":
        raise ValueError(
            f"fresh report mode is {fresh.get('mode', 'sim')!r}, want 'live' — "
            "the serve gate checks a wall-clock replay, not a simulation"
        )
    fresh_meta = fresh.get("scenario") or {}
    base_id = [baseline.get("scenario"), baseline.get("quick")]
    fresh_id = [fresh_meta.get("name"), fresh.get("quick")]
    if base_id != fresh_id:
        raise ValueError(
            "serve-smoke mismatch: the gate compares replays of the same scenario "
            f"at the same quick/full horizon — baseline {base_id} vs fresh {fresh_id}"
        )
    reference = baseline["reference"]
    gates = baseline["gates"]
    submitted = int(fresh["totals"]["submitted"])
    completed = int(fresh["totals"]["completed"])
    violation = float(fresh["totals"]["slo_violation_ratio"])

    ref_submitted = int(reference["submitted"])
    lo = gates["min_submitted_fraction"] * ref_submitted
    hi = gates["max_submitted_fraction"] * ref_submitted
    marker = "" if lo <= submitted <= hi else "  [REGRESSION]"
    print(
        f"submitted            : reference {ref_submitted:8d}   fresh {submitted:8d}   "
        f"bounds [{lo:.0f}, {hi:.0f}]{marker}"
    )
    if not lo <= submitted <= hi:
        failures.append(
            f"submitted {submitted} outside [{lo:.0f}, {hi:.0f}] — the replayer's "
            f"seed-derived arrival schedule should match the DES reference "
            f"({ref_submitted}) up to client-side retries"
        )

    if completed <= 0:
        failures.append("no requests completed — the live window is empty")
    min_completed = gates["min_completed_fraction"]
    fraction = completed / submitted if submitted else 0.0
    marker = "" if fraction >= min_completed else "  [REGRESSION]"
    print(
        f"completed fraction   : fresh {100 * fraction:6.2f}%   "
        f"bound >= {100 * min_completed:.0f}%{marker}"
    )
    if fraction < min_completed:
        failures.append(
            f"completed fraction {100 * fraction:.1f}% below "
            f"{100 * min_completed:.0f}% ({completed}/{submitted})"
        )

    max_violation = gates["max_slo_violation_ratio"]
    marker = "" if violation <= max_violation else "  [REGRESSION]"
    print(
        f"slo_violation_ratio  : reference {100 * float(reference['slo_violation_ratio']):6.2f}%   "
        f"fresh {100 * violation:6.2f}%   bound <= {100 * max_violation:.0f}%{marker}"
    )
    if violation > max_violation:
        failures.append(
            f"live SLO-violation ratio {100 * violation:.2f}% exceeds the "
            f"documented bound {100 * max_violation:.0f}% "
            f"(DES reference {100 * float(reference['slo_violation_ratio']):.2f}%)"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="committed report")
    parser.add_argument("--fresh", required=True, help="freshly measured report")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="scenario/sweep: max fractional SLO-violation growth, completed-request "
        "drop or GPU-seconds growth before failing (default 0.30); serve uses the "
        "baseline's own bounds",
    )
    args = parser.parse_args(argv)
    if not 0 < args.tolerance < 1:
        parser.error(f"--tolerance must be in (0, 1), got {args.tolerance}")

    try:
        baseline = load_report(args.baseline)
        kind = baseline["benchmark"]
        # The serve gate's fresh side is a live ScenarioReport, not another
        # gate file.
        fresh = load_report(args.fresh, kinds=("scenario",) if kind == "serve" else (kind,))
        if kind == "serve":
            failures = check_serve(baseline, fresh, args.tolerance)
        elif kind == "scenario":
            failures = check_scenario(baseline, fresh, args.tolerance)
        else:
            failures = check_sweep(baseline, fresh, args.tolerance)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("benchmark regression gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
