"""Sweep results: every cell's ScenarioReport plus first-class comparisons.

A :class:`SweepReport` is what :func:`repro.sweep.runner.run_sweep` returns:
one :class:`CellResult` per grid point (the cell's coordinates, a flat
headline-metric dict, and the full embedded
:class:`~repro.scenario.report.ScenarioReport` payload), plus the
*comparisons* the paper's evaluation style is built on:

* :meth:`SweepReport.axis_deltas` — for each axis, the mean metric delta of
  every value against the axis's first (baseline) value, averaged over
  matched cells (cells identical in all other coordinates) — "what does
  switching binpack → spread cost, all else equal?";
* :meth:`SweepReport.pareto` — the SLO-vs-GPU-cost frontier: cells no other
  cell dominates on (GPU-seconds, SLO-violation rate);
* :func:`diff_reports` — a cell-by-cell diff of two saved reports
  (``python -m repro sweep --diff A.json B.json``), for before/after
  comparisons across commits;
* :meth:`SweepReport.assertion_results` — the verdicts of the spec's
  ``assert`` block, over the cell metrics plus the derived
  :func:`effective_violation_ratio`.

Serialization is a stable ``benchmark: "sweep"`` JSON, byte-identical
across runs of the same spec (committed pins are compared to a fresh run
exactly), with the deltas and frontier precomputed under ``"diffs"`` / ``"pareto"`` (and the verdicts
under ``"assert"`` when the spec has that block).  Wall-clock cell
timings are deliberately *excluded* from the payload so a ``--jobs N`` run
serializes bit-identically to the serial one.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing as _t

from repro.sweep.spec import (
    Sweep,
    SweepError,
    axis_value_label,
    axis_value_to_json,
    coords_key,
)

#: Format tag written into serialized sweep reports.
REPORT_FORMAT = "fast-gshare-sweep-report/1"

#: The flat per-cell metrics every comparison (deltas, Pareto, diff) reads.
HEADLINE_METRICS = (
    "slo_violation_ratio",
    "p95_ms",
    "gpu_seconds",
    "mean_gpus",
    "peak_gpus",
    "mean_alloc_fraction",
    "cold_wait_ms_mean",
    "queue_wait_ms_mean",
)


def _is_number(value: _t.Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def effective_violation_ratio(metrics: _t.Mapping[str, _t.Any]) -> float:
    """SLO violations plus never-served requests, over submitted.

    A request that is never served violates its SLO by definition, so a
    cell cannot rank better by dropping work.
    """
    submitted = metrics["submitted"]
    if not submitted:
        return 0.0
    completed = metrics["completed"]
    never_served = submitted - completed
    return (metrics["slo_violation_ratio"] * completed + never_served) / submitted


@dataclasses.dataclass(frozen=True, slots=True)
class CellResult:
    """One executed grid point: coordinates, metrics, embedded report."""

    index: int
    coords: tuple[tuple[str, _t.Any], ...]
    scenario_name: str
    seed: int
    metrics: dict[str, _t.Any]
    report: dict[str, _t.Any]
    #: wall-clock seconds (in-memory only; never serialized — see module doc).
    elapsed: float = 0.0

    @property
    def key(self) -> str:
        return coords_key(self.coords)

    @property
    def coords_dict(self) -> dict[str, _t.Any]:
        return {axis: axis_value_to_json(value) for axis, value in self.coords}

    def metric(self, name: str) -> float:
        value = self.metrics.get(name)
        return float(value) if _is_number(value) else float("nan")

    def assert_metric(self, name: str) -> float:
        """One of :data:`~repro.sweep.spec.ASSERT_METRICS` (absent counts read 0)."""
        if name == "effective_violation_ratio":
            return effective_violation_ratio(self.metrics)
        return float(self.metrics.get(name, 0))

    def to_dict(self) -> dict:
        return {
            # A list of [axis, value] pairs, not an object: JSON objects lose
            # axis order under sorted serialization, and order is the grid's.
            "coords": [
                [axis, axis_value_to_json(value)] for axis, value in self.coords
            ],
            "key": self.key,
            "scenario": self.scenario_name,
            "seed": self.seed,
            "metrics": self.metrics,
            "report": self.report,
        }

    @classmethod
    def from_dict(cls, payload: _t.Mapping[str, _t.Any], index: int) -> "CellResult":
        raw_coords = payload.get("coords")
        if not isinstance(raw_coords, list):
            raise SweepError(f"cells[{index}]: expected a 'coords' list of [axis, value] pairs")
        try:
            coords = tuple(
                (axis, tuple(value) if isinstance(value, list) else value)
                for axis, value in raw_coords
            )
        except (TypeError, ValueError) as exc:
            raise SweepError(
                f"cells[{index}].coords: expected [axis, value] pairs ({exc})"
            ) from exc
        return cls(
            index=index,
            coords=coords,
            scenario_name=str(payload.get("scenario", "")),
            seed=int(payload.get("seed", 0)),
            metrics=dict(payload.get("metrics") or {}),
            report=dict(payload.get("report") or {}),
        )


@dataclasses.dataclass(frozen=True, slots=True)
class SweepReport:
    """Everything one sweep measured, plus its derived comparisons."""

    sweep: Sweep
    quick: bool
    cells: tuple[CellResult, ...]

    def cell(self, **coords: _t.Any) -> CellResult:
        """The cell matching every given ``axis=value`` coordinate."""
        wanted = {
            axis: tuple(value) if isinstance(value, list) else value
            for axis, value in coords.items()
        }
        for cell in self.cells:
            have = dict(cell.coords)
            if all(have.get(axis) == value for axis, value in wanted.items()):
                return cell
        raise KeyError(f"no cell matching {coords!r}")

    # -- comparisons ------------------------------------------------------------
    def axis_deltas(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per-axis metric deltas against each axis's first (baseline) value.

        For every axis with more than one value: hold all *other* coordinates
        fixed, subtract the baseline cell's metric from the alternative
        cell's, and average those matched-pair deltas over the rest of the
        grid.  Metrics that are NaN in either cell of a pair (e.g. p95 of an
        idle cell) drop out of that pair's average.
        """
        deltas: dict[str, dict[str, dict[str, float]]] = {}
        for axis in self.sweep.axes:
            if len(axis.values) < 2:
                continue
            by_coords = {cell.key: cell for cell in self.cells}
            baseline = axis.values[0]
            axis_out: dict[str, dict[str, float]] = {}
            for value in axis.values[1:]:
                sums: dict[str, float] = {m: 0.0 for m in HEADLINE_METRICS}
                counts: dict[str, int] = {m: 0 for m in HEADLINE_METRICS}
                for cell in self.cells:
                    if dict(cell.coords).get(axis.axis) != value:
                        continue
                    base_coords = tuple(
                        (a, baseline if a == axis.axis else v) for a, v in cell.coords
                    )
                    base_cell = by_coords.get(coords_key(base_coords))
                    if base_cell is None:
                        continue
                    for metric in HEADLINE_METRICS:
                        a, b = base_cell.metric(metric), cell.metric(metric)
                        if math.isnan(a) or math.isnan(b):
                            continue
                        sums[metric] += b - a
                        counts[metric] += 1
                axis_out[axis_value_label(value)] = {
                    metric: sums[metric] / counts[metric]
                    for metric in HEADLINE_METRICS
                    if counts[metric]
                }
            deltas[axis.axis] = axis_out
        return deltas

    def pareto(
        self, x: str = "gpu_seconds", y: str = "slo_violation_ratio"
    ) -> tuple[CellResult, ...]:
        """Cells on the (x, y) frontier — both metrics minimized.

        A cell survives if no other cell is at least as good on both metrics
        and strictly better on one.  Cells with NaN in either metric are
        excluded.  The default frontier is the paper's trade-off: GPU cost
        vs SLO-violation rate.
        """
        candidates = [
            c for c in self.cells if not (math.isnan(c.metric(x)) or math.isnan(c.metric(y)))
        ]
        frontier = []
        for cell in candidates:
            dominated = any(
                other is not cell
                and other.metric(x) <= cell.metric(x)
                and other.metric(y) <= cell.metric(y)
                and (other.metric(x) < cell.metric(x) or other.metric(y) < cell.metric(y))
                for other in candidates
            )
            if not dominated:
                frontier.append(cell)
        return tuple(sorted(frontier, key=lambda c: (c.metric(x), c.metric(y))))

    def assertion_results(self) -> list[dict[str, _t.Any]]:
        """Each ``assert`` entry with its verdict (``holds``) and failed checks."""
        by_key = {cell.key: cell for cell in self.cells}
        results = []
        for check in self.sweep.asserts:
            cell = by_key[check.cell]
            failed = []
            for other_key in check.vs:
                other = by_key[other_key]
                for op, metrics in (("<", check.lt), ("<=", check.le)):
                    for metric in metrics:
                        a, b = cell.assert_metric(metric), other.assert_metric(metric)
                        if not (a < b if op == "<" else a <= b):
                            failed.append(f"{metric} {a:.6g} !{op} {b:.6g} ({other_key})")
            results.append({**check.to_dict(), "holds": not failed, "failed": failed})
        return results

    # -- serialization ----------------------------------------------------------
    def to_dict(self) -> dict:
        pareto = self.pareto()
        payload = {
            "benchmark": "sweep",
            "format": REPORT_FORMAT,
            "quick": self.quick,
            "sweep": self.sweep.to_dict(),
            "cells": [cell.to_dict() for cell in self.cells],
            "diffs": self.axis_deltas(),
            "pareto": {
                "x": "gpu_seconds",
                "y": "slo_violation_ratio",
                "cells": [cell.key for cell in pareto],
            },
        }
        if self.sweep.asserts:
            payload["assert"] = self.assertion_results()
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path: str) -> dict:
        payload = self.to_dict()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return payload

    @classmethod
    def from_dict(cls, payload: _t.Any) -> "SweepReport":
        if not isinstance(payload, dict):
            raise SweepError(f"sweep report: expected an object, got {type(payload).__name__}")
        fmt = payload.get("format")
        if fmt != REPORT_FORMAT:
            raise SweepError(
                f"sweep report: unsupported format {fmt!r} (want {REPORT_FORMAT!r})"
            )
        sweep = Sweep.from_dict(payload.get("sweep"))
        try:
            cells = tuple(
                CellResult.from_dict(entry, i)
                for i, entry in enumerate(payload.get("cells") or ())
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, SweepError):
                raise
            raise SweepError(f"sweep report: malformed cells ({exc!r})") from exc
        return cls(sweep=sweep, quick=bool(payload.get("quick", False)), cells=cells)

    @classmethod
    def from_json(cls, text: str) -> "SweepReport":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SweepError(f"sweep report: invalid JSON ({exc})") from exc
        return cls.from_dict(payload)

    # -- human-readable summary -------------------------------------------------
    def summary(self) -> str:
        sweep = self.sweep
        grid = " x ".join(f"{a.axis}({len(a.values)})" for a in sweep.axes)
        lines = [
            f"Sweep {sweep.name!r}  ({len(self.cells)} cells: {grid}, "
            f"base seed {sweep.base.seed}"
            f"{', reseed' if sweep.reseed else ''}{', quick' if self.quick else ''})",
            "  cell"
            + " " * 36
            + "viol%   p95(ms)    GPU-s  mGPUs  alloc%  cold(ms)",
        ]
        for cell in self.cells:
            lines.append(
                f"  {cell.key:<38} {100 * cell.metric('slo_violation_ratio'):6.2f} "
                f"{cell.metric('p95_ms'):9.1f} {cell.metric('gpu_seconds'):8.0f} "
                f"{cell.metric('mean_gpus'):6.2f} "
                f"{100 * cell.metric('mean_alloc_fraction'):7.1f} "
                f"{cell.metric('cold_wait_ms_mean'):9.1f}"
            )
        deltas = self.axis_deltas()
        for axis_name, per_value in deltas.items():
            baseline = axis_value_label(
                next(a for a in sweep.axes if a.axis == axis_name).values[0]
            )
            for value, metrics in per_value.items():
                if not metrics:
                    continue
                lines.append(
                    f"  Δ {axis_name}: {baseline} -> {value}:  "
                    f"viol {100 * metrics.get('slo_violation_ratio', 0.0):+0.2f}pp  "
                    f"GPU-s {metrics.get('gpu_seconds', 0.0):+0.0f}  "
                    f"mean GPUs {metrics.get('mean_gpus', 0.0):+0.2f}  "
                    f"cold wait {metrics.get('cold_wait_ms_mean', 0.0):+0.1f} ms"
                )
        frontier = self.pareto()
        if frontier:
            lines.append(
                "  Pareto (GPU-s vs viol%): "
                + "; ".join(
                    f"{c.key} ({c.metric('gpu_seconds'):.0f} GPU-s, "
                    f"{100 * c.metric('slo_violation_ratio'):.2f}%)"
                    for c in frontier
                )
            )
        for result in self.assertion_results():
            checks = ", ".join(
                f"{op} {', '.join(result[op])}" for op in ("lt", "le") if result[op]
            )
            verdict = "holds" if result["holds"] else "FAILS: " + "; ".join(result["failed"])
            lines.append(
                f"  assert {result['cell']} vs {', '.join(result['vs'])} ({checks}): {verdict}"
            )
        return "\n".join(lines)


def load_sweep_report(path: str) -> SweepReport:
    """Load a saved sweep report (``python -m repro sweep --output``) from ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SweepError(f"{path}: cannot read sweep report ({exc})") from exc
    try:
        return SweepReport.from_json(text)
    except SweepError as exc:
        raise SweepError(f"{path}: {exc}") from exc


def diff_reports(a: SweepReport, b: SweepReport) -> str:
    """Cell-by-cell headline-metric diff of two sweep reports (A → B).

    Cells are matched on their coordinate keys; cells present in only one
    report are listed, not compared.  The sweeps need not be the same spec —
    diffing a sweep against a re-run after a code or spec change is the
    point — but at least one cell must match.
    """
    cells_a = {cell.key: cell for cell in a.cells}
    cells_b = {cell.key: cell for cell in b.cells}
    shared = [key for key in cells_a if key in cells_b]
    if not shared:
        raise SweepError(
            "sweep diff: no matching cells between the two reports "
            f"(A has {sorted(cells_a)}, B has {sorted(cells_b)})"
        )
    lines = [
        f"Sweep diff: A={a.sweep.name!r} ({len(a.cells)} cells)  "
        f"B={b.sweep.name!r} ({len(b.cells)} cells)  matched {len(shared)}",
        "  cell"
        + " " * 36
        + "Δviol(pp)  Δp95(ms)   ΔGPU-s  ΔmGPUs  Δcold(ms)",
    ]
    for key in shared:
        cell_a, cell_b = cells_a[key], cells_b[key]

        def delta(metric: str) -> float:
            x, y = cell_a.metric(metric), cell_b.metric(metric)
            if math.isnan(x) or math.isnan(y):
                return float("nan")
            return y - x

        lines.append(
            f"  {key:<38} {100 * delta('slo_violation_ratio'):+9.2f} "
            f"{delta('p95_ms'):+9.1f} {delta('gpu_seconds'):+8.0f} "
            f"{delta('mean_gpus'):+7.2f} {delta('cold_wait_ms_mean'):+10.1f}"
        )
    only_a = sorted(set(cells_a) - set(cells_b))
    only_b = sorted(set(cells_b) - set(cells_a))
    if only_a:
        lines.append(f"  only in A: {', '.join(only_a)}")
    if only_b:
        lines.append(f"  only in B: {', '.join(only_b)}")
    return "\n".join(lines)
