"""Scenario results: per-function reports plus cluster-level aggregates.

A :class:`ScenarioReport` is what :meth:`repro.platform.FaSTGShare.run_scenario`
returns for one measured window (:class:`repro.scenario.runner.MeasuredWindow`):
one :class:`RunReport` per function (latency percentiles, SLO violations,
queue-vs-cold wait attribution, the raw request log for post-processing),
cluster aggregates (GPU-seconds, mean/peak GPUs, allocation fraction, a
utilization timeseries), the control-plane event counts since the window
opened (at warm-up end, else at serve start, in either mode), and a stable
JSON serialization (``benchmark: "scenario"``): byte-identical across runs
of the same spec and seed, so a committed pin is compared to a fresh run
exactly.  A live report (``mode: "live"``) is the one exception;
``benchmarks/check_regression.py`` bounds its robust counters instead.
"""

from __future__ import annotations

import dataclasses
import json
import typing as _t

from repro.scenario.spec import Scenario

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.faas.requests import RequestLog

#: Format tag written into serialized scenario reports.
REPORT_FORMAT = "fast-gshare-scenario-report/1"

#: The memory tier's and the migrator's window counts (of
#: :func:`repro.scenario.runner.control_counts`).  Reports show them only
#: where that subsystem acted, so reports of runs without it stay
#: byte-identical to older baselines; every other count always shows.
MEMTIER_EVENTS = ("swap_promotions", "demotions", "host_evictions")
MIGRATION_EVENTS = ("migrations", "migration_aborts")

#: How :meth:`ScenarioReport.summary` labels each count (aborted migrations
#: print as a parenthesis after the migrations).
_SUMMARY_LABELS = {
    "scale_ups": "up",
    "scale_downs": "down",
    "nofit": "nofit",
    "prewarms": "prewarm",
    "promotions": "promote",
    "retirements": "retire",
    "swap_promotions": "swap-in",
    "demotions": "demote",
    "host_evictions": "evict-host",
    "migrations": "migrate",
}


@dataclasses.dataclass(slots=True)
class RunReport:
    """Aggregated results of one function over a measured window."""

    function: str
    duration: float
    submitted: int
    completed: int
    throughput: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    slo_ms: float
    slo_violation_ratio: float
    node_metrics: list[tuple[str, float, float]]
    log: RequestLog
    #: mean wait behind other requests on an accepting replica (ms).
    queue_wait_ms_mean: float = 0.0
    #: mean pending-queue wait while *no* replica was accepting — the
    #: cold-start-attributable share of latency (ms).
    cold_wait_ms_mean: float = 0.0
    #: requests that spent any time waiting on a cold start.
    cold_hit_requests: int = 0
    #: mean pending-queue wait attributable to a host→GPU swap-in (ms) —
    #: split out from ``cold_wait_ms_mean`` by the gateway's attribution.
    swap_wait_ms_mean: float = 0.0
    #: requests that spent any time waiting on a swap-in.
    swap_hit_requests: int = 0


@dataclasses.dataclass(frozen=True, slots=True)
class FunctionOutcome:
    """One function's measured window (a RunReport plus scenario metadata)."""

    name: str
    model: str
    shape: str | None
    run: RunReport

    @property
    def slo_violation_ratio(self) -> float:
        return self.run.slo_violation_ratio

    def to_dict(self) -> dict:
        run = self.run
        payload = {
            "model": self.model,
            "shape": self.shape,
            "slo_ms": run.slo_ms,
            "submitted": run.submitted,
            "completed": run.completed,
            "throughput": run.throughput,
            "p50_ms": run.p50_ms,
            "p95_ms": run.p95_ms,
            "p99_ms": run.p99_ms,
            "slo_violation_ratio": run.slo_violation_ratio,
            "queue_wait_ms_mean": run.queue_wait_ms_mean,
            "cold_wait_ms_mean": run.cold_wait_ms_mean,
            "cold_hit_requests": run.cold_hit_requests,
        }
        # Memory-tier keys appear only when the tier actually acted, so
        # memtier-off reports stay byte-identical to pre-tier baselines.
        if run.swap_hit_requests:
            payload["swap_wait_ms_mean"] = run.swap_wait_ms_mean
            payload["swap_hit_requests"] = run.swap_hit_requests
        return payload


@dataclasses.dataclass(frozen=True, slots=True)
class UtilizationSample:
    """One sampling tick of the cluster's placement state."""

    time: float
    gpus_in_use: int
    alloc_by_node: dict[str, float]


@dataclasses.dataclass(frozen=True, slots=True)
class ScenarioReport:
    """Everything one scenario run measured."""

    scenario: Scenario
    quick: bool
    t0: float
    duration: float
    horizon: float
    functions: tuple[FunctionOutcome, ...]
    #: cluster-wide latency/violation over every completed request in window.
    overall_p95_ms: float
    overall_violation_ratio: float
    submitted: int
    completed: int
    #: placement aggregates from the sampled timeseries.
    gpu_seconds: float
    mean_gpus: float
    peak_gpus: int
    mean_alloc_fraction: float
    utilization: tuple[UtilizationSample, ...]
    node_utilization: dict[str, float]
    #: control-plane counts since the window opened, keyed as
    #: :func:`repro.scenario.runner.control_counts` names them.
    events: dict[str, int]
    #: scheduler replica-count series [(t, {function: count}), ...] for plots.
    replica_series: tuple[tuple[float, dict[str, int]], ...] = ()
    #: optional observability block (events/spans/metrics snapshots from
    #: :mod:`repro.obs`); ``None`` — and absent from the serialization —
    #: unless the run recorded telemetry, so telemetry-off reports stay
    #: byte-identical to older baselines.
    telemetry: dict | None = None
    #: how the window was measured: ``"sim"`` (discrete-event, the default)
    #: or ``"live"`` (wall-clock serving behind the HTTP gateway).  Absent
    #: from the serialization when ``"sim"`` so committed pins stay
    #: byte-identical.
    mode: str = "sim"

    def function(self, name: str) -> FunctionOutcome:
        for outcome in self.functions:
            if outcome.name == name:
                return outcome
        raise KeyError(f"no outcome for function {name!r}")

    @property
    def per_function_violations(self) -> dict[str, float]:
        return {o.name: o.slo_violation_ratio for o in self.functions}

    # -- serialization ----------------------------------------------------------
    def to_dict(self) -> dict:
        payload = {
            "benchmark": "scenario",
            "format": REPORT_FORMAT,
            "quick": self.quick,
            "scenario": self.scenario.to_dict(),
            "duration_s": self.duration,
            "horizon_s": self.horizon,
            "totals": {
                "submitted": self.submitted,
                "completed": self.completed,
                "p95_ms": self.overall_p95_ms,
                "slo_violation_ratio": self.overall_violation_ratio,
            },
            "functions": {o.name: o.to_dict() for o in self.functions},
            "cluster": {
                "gpu_seconds": self.gpu_seconds,
                "mean_gpus": self.mean_gpus,
                "peak_gpus": self.peak_gpus,
                "mean_alloc_fraction": self.mean_alloc_fraction,
                "node_utilization": self.node_utilization,
                "utilization_timeseries": {
                    "t": [s.time for s in self.utilization],
                    "gpus_in_use": [s.gpus_in_use for s in self.utilization],
                    # Same convention as mean_alloc_fraction: allocated area
                    # per *in-use* GPU (0.0 when nothing is placed).
                    "alloc_fraction": [
                        sum(s.alloc_by_node.values())
                        / max(1, len([a for a in s.alloc_by_node.values() if a > 0]))
                        for s in self.utilization
                    ],
                },
            },
            "events": {
                name: count
                for name, count in self.events.items()
                if count or name not in MEMTIER_EVENTS + MIGRATION_EVENTS
            },
        }
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry
        if self.mode != "sim":
            payload["mode"] = self.mode
        return payload

    def shown_events(self) -> dict[str, int]:
        """The counts a summary shows: all but the memory tier's and the
        migrator's groups in which nothing happened."""
        hidden = {
            name
            for group in (MEMTIER_EVENTS, MIGRATION_EVENTS)
            if not any(self.events[member] for member in group)
            for name in group
        }
        return {name: count for name, count in self.events.items() if name not in hidden}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path: str) -> dict:
        payload = self.to_dict()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return payload

    # -- human-readable summary -------------------------------------------------
    def summary(self) -> str:
        scenario = self.scenario
        aborted = self.events["migration_aborts"]
        nodes = scenario.cluster.nodes
        node_desc = (
            f"{nodes} x {scenario.cluster.gpu}"
            if isinstance(nodes, int)
            else ", ".join(nodes)
        )
        lines = [
            f"Scenario {scenario.name!r}  ({len(scenario.functions)} functions, "
            f"nodes: {node_desc}, sharing: {scenario.cluster.sharing}, "
            f"seed {scenario.seed}{', quick' if self.quick else ''}"
            f"{', live' if self.mode == 'live' else ''})",
            f"  window {self.duration:.1f}s  submitted {self.submitted}  "
            f"completed {self.completed}  overall p95 {self.overall_p95_ms:.1f} ms  "
            f"violations {100 * self.overall_violation_ratio:.2f}%",
            f"  GPUs: mean {self.mean_gpus:.2f}  peak {self.peak_gpus}  "
            f"{self.gpu_seconds:.0f} GPU-s  alloc {100 * self.mean_alloc_fraction:.1f}%",
            "  events: "
            + " / ".join(
                f"{count} {_SUMMARY_LABELS[name]}"
                for name, count in self.shown_events().items()
                if name in _SUMMARY_LABELS
            )
            + (f" ({aborted} aborted)" if aborted else ""),
            "  function            model       SLO(ms)  done/sub    p95(ms)  viol%  cold-hits",
        ]
        for outcome in self.functions:
            run = outcome.run
            lines.append(
                f"  {outcome.name:<19} {outcome.model:<11} {run.slo_ms:7.0f}  "
                f"{run.completed}/{run.submitted:<9} {run.p95_ms:8.1f} "
                f"{100 * run.slo_violation_ratio:6.2f} {run.cold_hit_requests:10d}"
            )
        return "\n".join(lines)
