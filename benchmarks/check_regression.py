#!/usr/bin/env python
"""Live-serve regression gate for CI.

Every simulated report pin is bit-deterministic, so it is checked by exact
equality (``tests/test_pins.py`` and CI's ``cmp`` steps), not here.  The one
report that is not is the live serving smoke: a wall-clock replay of
``repro serve`` + ``repro replay`` on localhost.  This script compares such a
fresh report against the committed gate file ``BENCH_serve_quick.json`` and
fails (exit 1) on a regression of its robust counters:

* the arrival schedule is seed-derived and must match the committed DES
  reference (within a small fraction for client-side retries);
* the completed fraction must stay high;
* the SLO-violation ratio must stay under an absolute bound documented in
  the baseline (the DES ratio plus a generous live-jitter margin).

The baseline must be a ``benchmark: "serve"`` gate file and the fresh report
a ScenarioReport with ``mode: "live"``.

Usage::

    python benchmarks/check_regression.py \
        --baseline benchmarks/BENCH_serve_quick.json --fresh SERVE_fresh.json
"""

from __future__ import annotations

import argparse
import json
import sys


def load_report(path: str, kind: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("benchmark") != kind:
        raise ValueError(f"{path}: not a known benchmark report (want benchmark {kind!r})")
    return report


def check_serve(baseline: dict, fresh: dict) -> list[str]:
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
    parser.add_argument("--baseline", required=True, help="committed serve gate file")
    parser.add_argument("--fresh", required=True, help="live report from repro replay --output")
    args = parser.parse_args(argv)

    try:
        baseline = load_report(args.baseline, "serve")
        # The fresh side is a live ScenarioReport, not another gate file.
        fresh = load_report(args.fresh, "scenario")
        failures = check_serve(baseline, fresh)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("serve regression gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
