"""Execute a declarative :class:`~repro.scenario.spec.Scenario`.

This is the one code path that measures a served window (figs. 1, 10-12,
14, 15, the headline, ablation A2, ``python -m repro scenario``): build the
platform from the cluster spec, register the fleet, resolve each function's
workload into an arrival process (or ``closed``-loop virtual users), start
the autoscaler (or a static deployment), pre-place the initial pods, replay
all workloads concurrently, and measure them through a
:class:`MeasuredWindow`, which samples placement utilization and reduces
the window to a :class:`~repro.scenario.report.ScenarioReport`.  The live
server (:mod:`repro.serve.server`) measures through the same window.  In
both modes every count, control-plane events included, starts when the
window opens: at the warm-up end, else when serving starts.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import typing as _t

from repro.faas.loadgen import ClosedLoopClient, OpenLoopGenerator
from repro.faas.requests import RequestLog
from repro.faas.slo import violation_ratio
from repro.faas.traces import FunctionTrace, load_trace_file, synthesize_trace
from repro.faas.workload import StepTrace, Workload
from repro.k8s.objects import set_transition_observer
from repro.models import MODEL_ZOO
from repro.obs import TELEMETRY_FORMAT, assemble_spans, build_registry
from repro.profiler.database import ProfileDatabase
from repro.scenario.report import FunctionOutcome, RunReport, ScenarioReport, UtilizationSample
from repro.scenario.spec import Scenario, ScenarioError, ScenarioFunction
from repro.scheduler.mra import NoFitError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.platform import FaSTGShare


def resolve_workload(
    fn: ScenarioFunction,
    seed: int,
    trace_cache: dict[str, _t.Any] | None = None,
) -> tuple[Workload, FunctionTrace | None]:
    """Build the arrival process (and, when count-based, its trace) for ``fn``.

    Synthetic shapes derive deterministically from the scenario seed, so two
    scenarios differing only in policy replay byte-identical arrival counts.
    ``trace_cache`` (path → TraceSet) avoids re-parsing a trace file shared
    by many functions of one scenario.  A ``closed`` one is an empty window
    (:func:`_execute` starts its virtual users).
    """
    spec = fn.workload
    if spec.kind == "synthetic":
        trace = synthesize_trace(
            fn.name,
            fn.model,
            shape=spec.shape,
            mean_rps=spec.mean_rps,
            bins=spec.bins,
            bin_s=spec.bin_s,
            seed=seed,
        )
        return trace.to_workload(), trace
    if spec.kind == "counts":
        trace = FunctionTrace(
            function=fn.name,
            model=fn.model,
            counts=spec.counts,
            bin_s=spec.bin_s,
            shape=spec.shape,
        )
        return trace.to_workload(), trace
    if spec.kind == "trace":
        if trace_cache is not None and spec.path in trace_cache:
            trace_set = trace_cache[spec.path]
        else:
            trace_set = load_trace_file(spec.path)
            if trace_cache is not None:
                trace_cache[spec.path] = trace_set
        wanted = spec.trace_function or fn.name
        try:
            trace = trace_set.get(wanted)
        except KeyError as exc:
            raise ScenarioError(
                f"function {fn.name!r}: trace file {spec.path!r} has no entry "
                f"{wanted!r} (known: {trace_set.functions})"
            ) from exc
        if spec.max_bins and spec.max_bins < len(trace.counts):
            # quick()/max_bins: replay only the leading window of the file.
            trace = dataclasses.replace(trace, counts=trace.counts[: spec.max_bins])
        return trace.to_workload(), trace
    steps = list(spec.steps) if spec.kind == "steps" else [(spec.duration, spec.rps)]
    return StepTrace(steps, poisson=spec.poisson), None


def require_open_loop(scenario: Scenario) -> None:
    """Refuse a function with no arrival schedule (live serve and replay)."""
    for fn in scenario.functions:
        if fn.workload.kind == "closed":
            raise ScenarioError(f"function {fn.name!r}: a closed-loop workload has no arrivals")


def build_platform(scenario: Scenario) -> "FaSTGShare":
    """Construct the platform and register the scenario's fleet (in order)."""
    from repro.platform import FaSTGShare

    platform = FaSTGShare(
        scenario.cluster, seed=scenario.seed, placement=scenario.autoscaler.placement
    )
    for fn in scenario.functions:
        platform.register_function(
            fn.name,
            model=fn.model,
            slo_ms=fn.slo_ms,
            model_sharing=fn.model_sharing,
            weight_mb=fn.weight_mb,
            min_replicas=fn.min_replicas,
        )
    return platform


def _oracle_forecasters(scenario: Scenario, traces: _t.Mapping[str, FunctionTrace | None]) -> dict:
    from repro.autoscaler.forecast import OracleForecaster

    forecasters = {}
    for fn in scenario.functions:
        trace = traces[fn.name]
        if trace is None:
            raise ScenarioError(
                f"function {fn.name!r}: the oracle policy needs a count-based "
                f"workload (synthetic/counts/trace), got {fn.workload.kind!r}"
            )
        forecasters[fn.name] = OracleForecaster(trace, lead_s=scenario.autoscaler.oracle_lead_s)
    return forecasters


def _deploy_static(platform: "FaSTGShare", scenario: Scenario) -> None:
    """Static baseline: each function's explicit ``pods``, else its initial
    pods at its efficient point."""
    from repro.scheduler.autoscale import HeuristicScaler

    scaler = None
    if any(not fn.pods and fn.initial_count for fn in scenario.functions):
        database = ProfileDatabase.analytic(
            {fn.name: MODEL_ZOO[fn.model] for fn in scenario.functions}
        )
        slos = {fn.name: platform.registry.get(fn.name).slo_ms for fn in scenario.functions}
        scaler = HeuristicScaler.for_cluster(
            database, slos, scenario.autoscaler.latency_headroom, platform.cluster.speed_factors()
        )
    for fn in scenario.functions:
        if fn.pods:
            platform.deploy(fn.name, configs=fn.pods, node=fn.node)
        elif fn.initial_count:
            p_eff = scaler.p_eff(fn.name)
            platform.deploy(fn.name, configs=[(p_eff.sm_partition, p_eff.quota)] * fn.initial_count)


def transition_observer(engine) -> _t.Callable:
    """Pod-phase-transition hook that emits to ``engine``'s telemetry hub."""
    hub = engine.hub

    def observe_transition(pod, previous, phase, cost) -> None:
        hub.emit(
            engine.now,
            "pod",
            "transition",
            pod.spec.function_name,
            pod=pod.pod_id,
            **{"from": previous.value, "to": phase.value},
            cost_s=cost,
        )

    return observe_transition


def run_scenario(scenario: Scenario, quick: bool = False) -> ScenarioReport:
    """Serve, measure, and report one scenario (see module docstring).

    ``measurement.telemetry: true`` enables the platform engine's telemetry
    hub for the whole run (deployment and warm-up included, so causal chains
    reach decisions made before the measured window) and attaches the event
    stream, per-request spans, and the event-exact metrics snapshot as the
    report's ``telemetry`` block.
    """
    if quick:
        scenario = scenario.quick()
    platform = build_platform(scenario)
    observing = scenario.measurement.telemetry
    if observing:
        platform.engine.hub.enabled = True
        set_transition_observer(transition_observer(platform.engine))
    try:
        return _execute(scenario, quick, platform)
    finally:
        if observing:
            set_transition_observer(None)


@dataclasses.dataclass
class ControlPlane:
    """A deployed scenario: everything up to "ready to serve".

    Both measurement modes — the discrete-event run in :func:`_execute` and
    the wall-clock server in :mod:`repro.serve.server` — run the
    *identical* control plane this object captures and measure it through
    the same :class:`MeasuredWindow`; only the pacing of the window differs.
    """

    scenario: Scenario
    platform: "FaSTGShare"
    workloads: dict[str, Workload]
    traces: dict[str, "FunctionTrace | None"]
    scheduler: _t.Any | None
    oracle_forecasters: dict | None

    @property
    def horizon(self) -> float:
        return max(w.duration for w in self.workloads.values())


def prepare_control_plane(scenario: Scenario, platform: "FaSTGShare") -> ControlPlane:
    """Resolve workloads, start the autoscaler (or deploy statically), and
    wait until every initial replica is accepting — in pure virtual time."""
    auto = scenario.autoscaler

    workloads: dict[str, Workload] = {}
    traces: dict[str, FunctionTrace | None] = {}
    trace_cache: dict[str, _t.Any] = {}
    for fn in scenario.functions:
        workloads[fn.name], traces[fn.name] = resolve_workload(fn, scenario.seed, trace_cache)

    scheduler = None
    oracle_forecasters: dict | None = None
    if auto.enabled:
        database = ProfileDatabase.analytic(
            {fn.name: MODEL_ZOO[fn.model] for fn in scenario.functions}
        )
        if auto.policy == "oracle":
            oracle_forecasters = _oracle_forecasters(scenario, traces)
        scheduler = platform.start_autoscaler(database, auto, forecasters=oracle_forecasters)
        # Initial pods at each function's efficient SLO-feasible point,
        # placed through the scheduler so the policy owns every rectangle.
        for fn in scenario.functions:
            if fn.initial_count == 0:
                continue
            p_eff = scheduler.scaler.p_eff(fn.name)
            configs = [(p_eff.sm_partition, p_eff.quota)]
            for _ in range(fn.initial_count):
                if scheduler.place_pod(platform.controllers[fn.name], configs) is None:
                    raise NoFitError(f"{fn.name}: no GPU fits an initial pod at {configs[0]}")
    else:
        _deploy_static(platform, scenario)
    platform.wait_ready()
    return ControlPlane(
        scenario=scenario,
        platform=platform,
        workloads=workloads,
        traces=traces,
        scheduler=scheduler,
        oracle_forecasters=oracle_forecasters,
    )


def placement_state(platform: "FaSTGShare") -> tuple[int, dict[str, float]]:
    """(GPUs in use, per-node utilized allocation area) for one sample tick.

    ``fast`` reads its MRA ledger.  A baseline pod may use every SM, so a
    baseline GPU's allocated area is its hosted pods' summed quota limits,
    capped at the whole GPU.
    """
    if platform.cluster_spec.sharing == "fast":
        ledger = platform.placement
        return ledger.gpus_in_use(), ledger.utilized_area_by_node()
    quota: dict[str, float] = {}
    for pod in platform.cluster.pods.values():
        if pod.node_name:
            quota[pod.node_name] = quota.get(pod.node_name, 0.0) + pod.spec.quota_limit
    return len(quota), {node: min(1.0, area) for node, area in quota.items()}


def control_counts(platform: "FaSTGShare", scheduler: _t.Any | None) -> dict[str, int]:
    """Every monotonic control-plane counter a window reports, keyed as the
    report's ``events`` block names it; a window's counts are their growth
    from its open to its close."""
    actions = collections.Counter()
    prewarms = retirements = 0
    if scheduler is not None:
        actions.update(event.action for event in scheduler.events)
        prewarms, retirements = scheduler.predictive.prewarms, scheduler.predictive.retirements
    lifecycle, migrator = platform.lifecycle, platform.migrator
    return {
        "scale_ups": actions["up"],
        "scale_downs": actions["down"],
        "nofit": actions["nofit"],
        "prewarms": prewarms,
        "promotions": platform.gateway.promotions,
        "retirements": retirements,
        "swap_promotions": lifecycle.promotions if lifecycle is not None else 0,
        "demotions": lifecycle.demotions if lifecycle is not None else 0,
        "host_evictions": lifecycle.evictions if lifecycle is not None else 0,
        "migrations": migrator.completed if migrator is not None else 0,
        "migration_aborts": migrator.aborted if migrator is not None else 0,
    }


class MeasuredWindow:
    """The measured window of one deployed scenario, in either mode.

    Opening it anchors the oracle forecasters to the replay start, resets
    node metrics, snapshots each function's arrivals and the
    :func:`control_counts`, and samples placement every
    ``measurement.sample_dt`` until ``sample_until`` or :meth:`close`.
    :meth:`restart` opens it anew at the warm-up end, so nothing before the
    open is reported; :meth:`report` reduces ``[t0, now]`` to a
    :class:`~repro.scenario.report.ScenarioReport`.
    """

    def __init__(self, plane: ControlPlane, sample_until: float = math.inf):
        self.plane = plane
        self.samples: list[tuple[float, int, dict[str, float]]] = []
        self._sample_until = sample_until
        engine = plane.platform.engine
        if plane.oracle_forecasters:
            for forecaster in plane.oracle_forecasters.values():
                forecaster.origin = engine.now  # trace offset 0 == replay start
            # Every oracle forecast moved: nothing may sleep through that.
            plane.scheduler.predictive.wake_all()
        self.restart()
        self._next_sample = engine.schedule(plane.scenario.measurement.sample_dt, self._sample)

    def restart(self) -> None:
        """Open the window at the engine's current time."""
        platform = self.plane.platform
        platform.cluster.reset_metrics()
        self.t0 = platform.engine.now
        self.samples.clear()
        self._opening_submitted = dict(platform.gateway.submitted)
        self._opening_counts = control_counts(platform, self.plane.scheduler)

    def submitted(self, function: str) -> int:
        """``function``'s arrivals since the window opened."""
        arrivals = self.plane.platform.gateway.submitted[function]
        return arrivals - self._opening_submitted.get(function, 0)

    def _sample(self) -> None:
        platform = self.plane.platform
        engine = platform.engine
        self.samples.append((engine.now, *placement_state(platform)))
        self._next_sample = None
        if engine.now < self._sample_until:
            dt = self.plane.scenario.measurement.sample_dt
            self._next_sample = engine.schedule(dt, self._sample)

    def close(self) -> None:
        """Stop sampling and the control loop (the report may still wait
        for work in flight)."""
        if self._next_sample is not None:
            self._next_sample.cancel()
            self._next_sample = None
        if self.plane.scheduler is not None:
            self.plane.scheduler.stop()

    def report(self, *, quick: bool, mode: str = "sim") -> ScenarioReport:
        """Reduce the window ``[t0, now]`` to a ScenarioReport."""
        plane = self.plane
        scenario = plane.scenario
        platform = plane.platform
        scheduler = plane.scheduler
        t0, end = self.t0, platform.engine.now

        node_metrics = platform.cluster.node_metrics()
        submitted = {fn.name: self.submitted(fn.name) for fn in scenario.functions}
        runs = _run_reports(platform, submitted, t0, end, node_metrics)
        outcomes: list[FunctionOutcome] = []
        violated_total = 0
        for fn in scenario.functions:
            run = runs[fn.name]
            latencies = run.log.latencies_ms()
            violated_total += int((latencies > run.slo_ms).sum()) if latencies.size else 0
            trace = plane.traces[fn.name]
            outcomes.append(
                FunctionOutcome(
                    name=fn.name,
                    model=fn.model,
                    shape=trace.shape if trace is not None else None,
                    run=run,
                )
            )
        completed_total = sum(run.completed for run in runs.values())

        gpu_counts = [count for _, count, _ in self.samples]
        alloc_fractions = [
            sum(alloc.values()) / max(1, len([a for a in alloc.values() if a > 0]))
            for _, _, alloc in self.samples
            if any(a > 0 for a in alloc.values())
        ]
        replica_series = ()
        if scheduler is not None:
            replica_series = tuple(
                # The series covers only the window, on its own time base.
                (t - t0, dict(counts))
                for t, counts in scheduler.replica_series
                if t >= t0
            )
        closing_counts = control_counts(platform, scheduler)
        telemetry = None
        if scenario.measurement.telemetry:
            telemetry = _telemetry_block(platform.engine.hub, t0, end)

        return ScenarioReport(
            scenario=scenario,
            quick=quick,
            t0=t0,
            duration=end - t0,
            horizon=plane.horizon,
            functions=tuple(outcomes),
            overall_p95_ms=platform.gateway.log.in_window(t0, end).latency_percentile_ms(95),
            overall_violation_ratio=(violated_total / completed_total if completed_total else 0.0),
            submitted=sum(submitted.values()),
            completed=completed_total,
            gpu_seconds=sum(gpu_counts) * scenario.measurement.sample_dt,
            mean_gpus=sum(gpu_counts) / len(gpu_counts) if gpu_counts else 0.0,
            peak_gpus=max(gpu_counts) if gpu_counts else 0,
            mean_alloc_fraction=(
                sum(alloc_fractions) / len(alloc_fractions) if alloc_fractions else 0.0
            ),
            utilization=tuple(
                UtilizationSample(time=t - t0, gpus_in_use=count, alloc_by_node=dict(alloc))
                for t, count, alloc in self.samples
            ),
            node_utilization={name: util for name, util, _ in node_metrics},
            events={
                name: count - self._opening_counts[name] for name, count in closing_counts.items()
            },
            replica_series=replica_series,
            telemetry=telemetry,
            mode=mode,
        )


def _run_reports(
    platform: "FaSTGShare",
    submitted: _t.Mapping[str, int],
    t0: float,
    t1: float,
    node_metrics: list[tuple[str, float, float]],
) -> dict[str, RunReport]:
    """A :class:`RunReport` per function of ``submitted`` (its arrivals in
    the window) over the requests that arrived and completed in ``[t0, t1)``
    (:meth:`~repro.faas.requests.Request.in_window`): one pass groups the
    log by function; ``node_metrics`` is read once and shared."""
    windows = {function: RequestLog() for function in submitted}
    for request in platform.gateway.log.completed:
        if request.in_window(t0, t1):
            window = windows.get(request.function)
            if window is not None:
                window.completed.append(request)
    duration = t1 - t0
    reports = {}
    for function, window in windows.items():
        spec = platform.registry.get(function)
        p50, p95, p99 = window.latency_percentiles_ms(50, 95, 99)
        queue_waits = window.queue_waits_ms()
        cold_waits = window.cold_waits_ms()
        swap_waits = window.swap_waits_ms()
        reports[function] = RunReport(
            function=function,
            duration=duration,
            submitted=submitted[function],
            completed=len(window),
            throughput=window.throughput(duration),
            p50_ms=p50,
            p95_ms=p95,
            p99_ms=p99,
            slo_ms=spec.slo_ms,
            slo_violation_ratio=violation_ratio(window, spec.slo_ms),
            node_metrics=node_metrics,
            log=window,
            queue_wait_ms_mean=float(queue_waits.mean()) if queue_waits.size else 0.0,
            cold_wait_ms_mean=float(cold_waits.mean()) if cold_waits.size else 0.0,
            cold_hit_requests=window.cold_hits(),
            swap_wait_ms_mean=float(swap_waits.mean()) if swap_waits.size else 0.0,
            swap_hit_requests=window.swap_hits(),
        )
    return reports


def _telemetry_block(hub, t0: float, end: float) -> dict:
    spans = assemble_spans(hub.events)
    registry = build_registry(hub.events, spans, dropped=hub.dropped)
    return {
        "format": TELEMETRY_FORMAT,
        "t0": t0,
        "end": end,
        "dropped": hub.dropped,
        "events": [event.to_dict() for event in hub.events],
        "spans": [span.to_dict() for span in spans],
        "metrics": registry.to_dict(),
    }


def _execute(scenario: Scenario, quick: bool, platform: "FaSTGShare") -> ScenarioReport:
    engine = platform.engine
    plane = prepare_control_plane(scenario, platform)
    t_start = engine.now
    for fn in scenario.functions:
        load = fn.workload
        if load.kind == "closed":
            ClosedLoopClient(engine, platform.gateway, fn.name, load.concurrency, load.duration)
        else:
            OpenLoopGenerator(engine, platform.gateway, fn.name, plane.workloads[fn.name])
    measurement = scenario.measurement
    window = MeasuredWindow(plane, sample_until=t_start + plane.horizon)
    if measurement.warmup_s > 0:
        engine.run(until=t_start + measurement.warmup_s)
        window.restart()
    engine.run(until=t_start + plane.horizon + measurement.drain_s)
    window.close()
    return window.report(quick=quick)
