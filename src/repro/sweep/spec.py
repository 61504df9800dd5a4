"""The declarative Sweep spec: a parameter grid expanded over a base Scenario.

The paper's headline claims are all *comparisons* — policy vs policy,
FaST-GShare vs baseline — and a :class:`Sweep` makes the comparison itself
the declared object: one base :class:`~repro.scenario.spec.Scenario` plus a
grid of named axes, each an explicit list of values for one experiment
dimension::

    {
      "format": "fast-gshare-sweep/1",
      "name": "policy-frontier",
      "base": { ...scenario... },
      "axes": [
        {"axis": "fleet_size", "values": [16, 48, 96]},
        {"axis": "placement", "values": ["binpack", "affinity"]}
      ]
    }

Expansion is the row-major cartesian product (the *last* axis varies
fastest, like nested for-loops over the axes in order), and each cell is a
fully materialized Scenario: axis values are applied to the base spec, and
the cell inherits the base seed — every cell replays identical arrivals, so
metric differences are attributable to the axes — unless ``reseed`` is set,
in which case each cell derives a deterministic CRC-mixed seed from its
coordinates.  The spec round-trips through JSON, so sweeps are committed
files (``examples/sweeps/*.json``) replayed through the one
:func:`repro.sweep.runner.run_sweep` code path.

Axes (:data:`SWEEP_AXES`):

* ``placement``      — node-scoring policy (``autoscaler.placement``);
* ``autoscaler``     — autoscaling policy (``autoscaler.policy``);
* ``nodes``          — cluster size/shape (an int or a per-node GPU-type list);
* ``fleet_size``     — serve only the first N functions of the base fleet;
* ``workload_scale`` — multiply every function's offered load by a factor;
* ``headroom``       — the autoscaler's capacity headroom;
* ``fabric_gbps``    — per-node host↔GPU transfer bandwidth (GB/s);
* ``host_memory``    — per-node host-RAM budget in MB (``null`` disables
  the memory tier entirely);
* ``defrag``         — background-defragmentation trigger threshold in
  (0, 1) (``null`` disables live migration entirely, the default);
* ``sharing``        — the cluster's sharing mode (``cluster.sharing``); a
  mode other than ``fast`` needs a base with ``autoscaler.enabled=false``.

``base`` may also be a path string to a scenario file, resolved against the
sweep file's directory, so a sweep can reuse a committed scenario.

An optional ``assert`` list states what the comparison must show, each
entry in one form::

    {"cell": "autoscaler=memtier", "vs": ["autoscaler=hybrid"],
     "lt": ["gpu_seconds"], "le": ["effective_violation_ratio"]}

— ``cell`` must be strictly lower than every ``vs`` cell on each ``lt``
metric and lower or equal on each ``le`` metric (:data:`ASSERT_METRICS`).
The report records the verdicts and ``repro sweep`` exits 1 when one fails.

Validation is strict (:class:`SweepError` with the offending path): unknown
axes, duplicate axes or values, out-of-range values, an assertion naming an
unknown cell or metric, or any cell whose scenario is invalid — a
``fleet_size`` larger than the base fleet, a ``workload_scale`` axis over a
``trace``-kind workload (file-backed counts cannot be rescaled
declaratively) or a ``closed`` one, a ``sharing`` mode the base's
autoscaler cannot run, a ``nodes`` value that drops a pinned ``node`` —
fails when the sweep loads and never silently runs a different grid.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import typing as _t
import zlib

from repro.scenario.codec import Spec, decode_spec, field_decoder
from repro.scenario.spec import (
    AutoscalerSpec,
    ClusterSpec,
    Scenario,
    ScenarioError,
    WorkloadSpec,
    load_scenario,
)

#: Format tag written into serialized sweeps (bumped on breaking change).
SWEEP_FORMAT = "fast-gshare-sweep/1"

#: Axis names a sweep may declare, i.e. the sweepable experiment dimensions.
SWEEP_AXES = (
    "placement",
    "autoscaler",
    "nodes",
    "fleet_size",
    "workload_scale",
    "headroom",
    "fabric_gbps",
    "host_memory",
    "defrag",
    "sharing",
)

#: The axes that set one spec field: axis → (scenario section, field).  A
#: ``defrag`` value is the threshold of a fresh ``DefragSpec``, i.e. it sets
#: ``cluster.defrag`` to ``{"threshold": value}`` (null: no defragmenter).
_FIELD_AXES = {
    "placement": ("autoscaler", "placement"),
    "autoscaler": ("autoscaler", "policy"),
    "nodes": ("cluster", "nodes"),
    "headroom": ("autoscaler", "headroom"),
    "fabric_gbps": ("cluster", "fabric_gbps"),
    "host_memory": ("cluster", "host_memory_mb"),
    "defrag": ("cluster", "defrag"),
    "sharing": ("cluster", "sharing"),
}
_SECTIONS = {"autoscaler": AutoscalerSpec, "cluster": ClusterSpec}

#: Cell metrics an ``assert`` entry may compare.  The memory-tier and
#: migration counts read as 0 in cells where the tier or the defragmenter
#: never acted (cells omit them there); ``effective_violation_ratio`` is
#: derived (:func:`repro.sweep.report.effective_violation_ratio`).
ASSERT_METRICS = (
    "submitted",
    "completed",
    "slo_violation_ratio",
    "effective_violation_ratio",
    "p95_ms",
    "gpu_seconds",
    "mean_gpus",
    "peak_gpus",
    "mean_alloc_fraction",
    "cold_hit_requests",
    "cold_wait_ms_mean",
    "queue_wait_ms_mean",
    "scale_ups",
    "scale_downs",
    "nofit_events",
    "prewarms",
    "promotions",
    "retirements",
    "swap_promotions",
    "demotions",
    "host_evictions",
    "swap_hit_requests",
    "swap_wait_ms_mean",
    "migrations",
    "migration_aborts",
)


class SweepError(ValueError):
    """A sweep spec is malformed (unknown axis, bad value, bad base scenario)."""


def derive_cell_seed(base_seed: int, key: str) -> int:
    """Deterministic per-cell seed: CRC-mix the coordinate key into the base.

    CRC-32 (not ``hash()``, which is salted per interpreter) keeps the
    derived seeds stable across processes and Python versions, so a
    ``reseed`` sweep is bit-reproducible on any host.
    """
    return (base_seed ^ zlib.crc32(key.encode("utf-8"))) & 0x7FFFFFFF


def axis_value_label(value: _t.Any) -> str:
    """Canonical flat rendering of one axis value (``V100+T4`` for node lists)."""
    if isinstance(value, tuple):
        return "+".join(str(v) for v in value)
    return str(value)


def axis_value_to_json(value: _t.Any) -> _t.Any:
    """One axis value in its JSON form (tuples become lists)."""
    return list(value) if isinstance(value, tuple) else value


def coords_key(coords: _t.Sequence[tuple[str, _t.Any]]) -> str:
    """Canonical one-line form of a cell's coordinates, axis order preserved.

    Node lists render as ``+``-joined type names (``nodes=V100+T4``), so the
    key stays a flat string usable in scenario names and report matching.
    """
    return ",".join(f"{axis}={axis_value_label(value)}" for axis, value in coords)


def _field_value(axis: str, value: _t.Any) -> _t.Any:
    """Decode one axis value with the type of the field it sets, and build
    that section so the section's own checks validate it."""
    section, name = _FIELD_AXES[axis]
    raw = axis_value_to_json(value)
    if axis == "defrag" and raw is not None:
        raw = {"threshold": raw}
    cls = _SECTIONS[section]
    try:
        decoded = field_decoder(cls, name)(raw, f"{section}.{name}")
        cls(**{name: decoded})
    except ScenarioError as exc:
        raise SweepError(f"axes[{axis}]: {exc}") from exc
    return decoded


@dataclasses.dataclass(frozen=True, slots=True)
class SweepAxis(Spec):
    """One grid dimension: an axis name and its explicit value list."""

    axis: str
    values: tuple[_t.Any, ...]

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise SweepError(f"axes: unknown axis {self.axis!r}; known: {SWEEP_AXES}")
        # Normalize list-valued entries (node lists) to hashable tuples.
        object.__setattr__(
            self,
            "values",
            tuple(tuple(v) if isinstance(v, list) else v for v in self.values),
        )
        if not self.values:
            raise SweepError(f"axes[{self.axis}]: needs at least one value")
        path = f"axes[{self.axis}]"
        for value in self.values:
            if self.axis == "fleet_size":
                if isinstance(value, bool) or not isinstance(value, int):
                    raise SweepError(f"{path}: expected an integer, got {value!r}")
                if value < 1:
                    raise SweepError(f"{path}: fleet_size must be >= 1, got {value}")
            elif self.axis == "workload_scale":
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise SweepError(f"{path}: expected a number, got {value!r}")
                if value <= 0:
                    raise SweepError(f"{path}: workload_scale must be positive, got {value}")
            else:
                _field_value(self.axis, value)
        if len(set(self.values)) != len(self.values):
            raise SweepError(
                f"{path}: duplicate values {list(self.values)} would collide in the grid"
            )


@dataclasses.dataclass(frozen=True, slots=True)
class SweepCell:
    """One grid point: coordinates plus the fully materialized Scenario."""

    index: int
    coords: tuple[tuple[str, _t.Any], ...]
    scenario: Scenario
    seed: int

    @property
    def key(self) -> str:
        return coords_key(self.coords)


@dataclasses.dataclass(frozen=True, slots=True)
class SweepAssertion(Spec):
    """One ``assert`` entry: ``cell`` beats every ``vs`` cell on each metric
    (strictly on ``lt`` metrics, lower or equal on ``le`` metrics)."""

    _always = ("lt", "le")

    cell: str
    vs: tuple[str, ...]
    lt: tuple[str, ...] = ()
    le: tuple[str, ...] = ()


def _scale_workload(spec: WorkloadSpec, factor: float, function: str) -> WorkloadSpec:
    """Multiply one function's offered load by ``factor`` (load-fair axis)."""
    if spec.kind == "synthetic":
        return dataclasses.replace(spec, mean_rps=spec.mean_rps * factor)
    if spec.kind == "counts":
        return dataclasses.replace(spec, counts=tuple(int(round(c * factor)) for c in spec.counts))
    if spec.kind == "steps":
        return dataclasses.replace(spec, steps=tuple((d, r * factor) for d, r in spec.steps))
    if spec.kind == "constant":
        return dataclasses.replace(spec, rps=spec.rps * factor)
    if spec.kind == "closed":
        raise SweepError(
            f"axes[workload_scale]: function {function!r} declares a closed-loop "
            "workload — its load is a count of virtual users, not a rate"
        )
    raise SweepError(
        f"axes[workload_scale]: function {function!r} declares a trace-kind "
        "workload — file-backed counts cannot be rescaled declaratively "
        "(re-convert the trace with rps_scale instead)"
    )


def apply_axis(scenario: Scenario, axis: str, value: _t.Any) -> Scenario:
    """Return ``scenario`` with one axis value applied (pure, validation kept)."""
    if axis in _FIELD_AXES:
        section, name = _FIELD_AXES[axis]
        updated = dataclasses.replace(
            getattr(scenario, section), **{name: _field_value(axis, value)}
        )
        return dataclasses.replace(scenario, **{section: updated})
    if axis == "fleet_size":
        if value > len(scenario.functions):
            raise SweepError(
                f"axes[fleet_size]: {value} exceeds the base fleet of "
                f"{len(scenario.functions)} functions"
            )
        return dataclasses.replace(scenario, functions=scenario.functions[:value])
    if axis == "workload_scale":
        return dataclasses.replace(
            scenario,
            functions=tuple(
                dataclasses.replace(
                    fn, workload=_scale_workload(fn.workload, float(value), fn.name)
                )
                for fn in scenario.functions
            ),
        )
    raise SweepError(f"unknown axis {axis!r}; known: {SWEEP_AXES}")


@dataclasses.dataclass(frozen=True, slots=True)
class Sweep(Spec):
    """A parameter grid over a base Scenario (see module docstring)."""

    _format = SWEEP_FORMAT
    _keys = {"asserts": "assert"}

    name: str
    base: Scenario
    axes: tuple[SweepAxis, ...]
    reseed: bool = False
    cell_budget_s: float | None = None
    description: str = ""
    asserts: tuple[SweepAssertion, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise SweepError("sweep: name must be non-empty")
        if not self.axes:
            raise SweepError("sweep: need at least one axis")
        names = [a.axis for a in self.axes]
        if len(set(names)) != len(names):
            raise SweepError(f"sweep: duplicate axes: {names}")
        if self.cell_budget_s is not None and self.cell_budget_s <= 0:
            raise SweepError("sweep: cell_budget_s must be positive")
        self.cells()  # every cell's Scenario must validate: a bad grid fails on load
        keys = self.cell_keys()
        for i, check in enumerate(self.asserts):
            path = f"assert[{i}]"
            if not check.vs:
                raise SweepError(f"{path}.vs: needs at least one cell to compare against")
            if not (check.lt or check.le):
                raise SweepError(f"{path}: needs at least one 'lt' or 'le' metric")
            for name, key in [("cell", check.cell)] + [("vs", k) for k in check.vs]:
                if key not in keys:
                    raise SweepError(f"{path}.{name}: unknown cell {key!r}; known: {list(keys)}")
            for metric in check.lt + check.le:
                if metric not in ASSERT_METRICS:
                    raise SweepError(f"{path}: unknown metric {metric!r}; known: {ASSERT_METRICS}")

    @property
    def cell_count(self) -> int:
        count = 1
        for axis in self.axes:
            count *= len(axis.values)
        return count

    def cell_keys(self) -> tuple[str, ...]:
        """Every cell's coordinate key, in expansion order."""
        names = [axis.axis for axis in self.axes]
        return tuple(
            coords_key(tuple(zip(names, values)))
            for values in itertools.product(*(axis.values for axis in self.axes))
        )

    def cells(self) -> tuple[SweepCell, ...]:
        """Expand the grid: row-major product, last axis varying fastest.

        Each cell's Scenario is the base with the axis values applied in
        axis order, renamed ``base[key]``, and seeded with the base seed
        (``reseed=False``: identical arrivals, axis-attributable diffs) or a
        CRC-derived per-cell seed (``reseed=True``: independent draws).
        """
        cells = []
        for index, values in enumerate(itertools.product(*(axis.values for axis in self.axes))):
            coords = tuple((axis.axis, value) for axis, value in zip(self.axes, values))
            key = coords_key(coords)
            seed = derive_cell_seed(self.base.seed, key) if self.reseed else self.base.seed
            scenario = self.base
            for axis_name, value in coords:
                try:
                    scenario = apply_axis(scenario, axis_name, value)
                except ScenarioError as exc:
                    raise SweepError(f"axes[{axis_name}]: {exc}") from exc
            scenario = dataclasses.replace(scenario, name=f"{self.base.name}[{key}]", seed=seed)
            cells.append(SweepCell(index=index, coords=coords, scenario=scenario, seed=seed))
        return tuple(cells)

    @classmethod
    def from_dict(cls, payload: _t.Any, root: str = ".") -> "Sweep":
        """Parse a sweep payload; a path-string ``base`` resolves against ``root``."""
        base = payload.get("base") if type(payload) is dict else None
        if base is not None:
            try:
                if isinstance(base, str):
                    base = load_scenario(os.path.join(root, base))
                else:
                    base = Scenario.from_dict(base)
            except ScenarioError as exc:
                raise SweepError(f"base: {exc}") from exc
            payload = {**payload, "base": base}
        try:
            return decode_spec(cls, payload)
        except ScenarioError as exc:
            raise SweepError(str(exc)) from exc

    @classmethod
    def from_json(cls, text: str, root: str = ".") -> "Sweep":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SweepError(f"sweep: invalid JSON ({exc})") from exc
        return cls.from_dict(payload, root)


def load_sweep(path: str) -> Sweep:
    """Load a committed sweep JSON file from ``path``.

    A path-string ``base`` resolves against the sweep file's directory.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SweepError(f"{path}: cannot read sweep file ({exc})") from exc
    try:
        return Sweep.from_json(text, os.path.dirname(path))
    except SweepError as exc:
        raise SweepError(f"{path}: {exc}") from exc
