"""Execute a declarative :class:`~repro.scenario.spec.Scenario`.

This is the one serving/measurement code path every experiment routes
through (fig11/fig12/fig14/fig15, ``python -m repro scenario``, and any future
multi-tenant study): build the platform from the cluster spec, register the
fleet, resolve each function's workload into an arrival process, start the
autoscaler (or a static deployment), pre-place the initial pods, replay all
workloads concurrently, sample placement utilization, and aggregate a
:class:`~repro.scenario.report.ScenarioReport`.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.faas.loadgen import OpenLoopGenerator
from repro.faas.traces import FunctionTrace, load_trace_file, synthesize_trace
from repro.faas.workload import StepTrace, Workload
from repro.k8s.objects import set_transition_observer
from repro.models import MODEL_ZOO
from repro.obs import TELEMETRY_FORMAT, assemble_spans, build_registry
from repro.profiler.database import ProfileDatabase
from repro.scenario.report import FunctionOutcome, ScenarioReport, UtilizationSample
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
    by many functions of one scenario.
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
            platform.deploy(fn.name, configs=fn.pods)
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

    Both measurement modes — the discrete-event window in :func:`_execute`
    and the wall-clock window in :mod:`repro.serve.server` — run the
    *identical* control plane this object captures; only the pacing of the
    window in between differs.
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

    def anchor_oracles(self, t_start: float) -> None:
        if self.oracle_forecasters:
            for forecaster in self.oracle_forecasters.values():
                forecaster.origin = t_start  # trace offset 0 == replay start
            # Every oracle forecast moved: nothing may sleep through that.
            self.scheduler.predictive.wake_all()


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
    """(GPUs in use, per-node utilized allocation area) for one sample tick."""
    if platform.cluster_spec.sharing == "fast":
        ledger = platform.placement
        return ledger.gpus_in_use(), ledger.utilized_area_by_node()
    hosts = {pod.node_name for pod in platform.cluster.pods.values() if pod.node_name}
    return len(hosts), {}


@dataclasses.dataclass
class WindowCounters:
    """Monotonic control-plane counters at the measured window's open.

    The report subtracts these so warm-up (sim) or deployment (live)
    activity stays out of the measured window.
    """

    submitted: dict[str, int] = dataclasses.field(default_factory=dict)
    events: int = 0
    prewarms: int = 0
    retirements: int = 0
    promotions: int = 0
    swaps: int = 0
    demotions: int = 0
    evictions: int = 0
    migrations: int = 0
    migration_aborts: int = 0

    @classmethod
    def capture(cls, platform: "FaSTGShare", scheduler: _t.Any | None) -> "WindowCounters":
        counters = cls(submitted=dict(platform.gateway.submitted))
        counters.promotions = platform.gateway.promotions
        if platform.lifecycle is not None:
            counters.swaps = platform.lifecycle.promotions
            counters.demotions = platform.lifecycle.demotions
            counters.evictions = platform.lifecycle.evictions
        if platform.migrator is not None:
            counters.migrations = platform.migrator.completed
            counters.migration_aborts = platform.migrator.aborted
        if scheduler is not None:
            counters.events = len(scheduler.events)
            counters.prewarms = scheduler.predictive.prewarms
            counters.retirements = scheduler.predictive.retirements
        return counters


def _execute(scenario: Scenario, quick: bool, platform: "FaSTGShare") -> ScenarioReport:
    engine = platform.engine
    plane = prepare_control_plane(scenario, platform)
    scheduler = plane.scheduler
    workloads = plane.workloads

    t_start = engine.now
    plane.anchor_oracles(t_start)
    platform.cluster.reset_metrics()
    for fn in scenario.functions:
        OpenLoopGenerator(engine, platform.gateway, fn.name, workloads[fn.name])

    horizon = plane.horizon
    measurement = scenario.measurement
    samples: list[tuple[float, int, dict[str, float]]] = []

    def sample() -> None:
        gpus, alloc = placement_state(platform)
        samples.append((engine.now, gpus, alloc))
        if engine.now < t_start + horizon:
            engine.schedule(measurement.sample_dt, sample)

    engine.schedule(measurement.sample_dt, sample)

    t0 = t_start
    before = WindowCounters()
    if measurement.warmup_s > 0:
        engine.run(until=t_start + measurement.warmup_s)
        # Everything measured — latency windows, node metrics, utilization
        # samples, and control-plane event counts — restarts at t0 so the
        # report covers only the post-warm-up window.
        platform.cluster.reset_metrics()
        t0 = engine.now
        samples.clear()
        before = WindowCounters.capture(platform, scheduler)
    engine.run(until=t_start + horizon + measurement.drain_s)
    if scheduler is not None:
        scheduler.stop()
    end = engine.now
    return aggregate_report(plane, quick=quick, t0=t0, end=end, samples=samples, before=before)


def aggregate_report(
    plane: ControlPlane,
    *,
    quick: bool,
    t0: float,
    end: float,
    samples: list[tuple[float, int, dict[str, float]]],
    before: WindowCounters,
    mode: str = "sim",
) -> ScenarioReport:
    """Aggregate one measured window ``[t0, end]`` into a ScenarioReport."""
    scenario = plane.scenario
    platform = plane.platform
    scheduler = plane.scheduler
    traces = plane.traces
    engine = platform.engine
    measurement = scenario.measurement
    horizon = plane.horizon

    outcomes: list[FunctionOutcome] = []
    violated_total = 0
    completed_total = 0
    submitted_total = 0
    submitted = {
        fn.name: platform.gateway.submitted[fn.name] - before.submitted.get(fn.name, 0)
        for fn in scenario.functions
    }
    node_metrics = platform.cluster.node_metrics()
    runs = platform._reports(submitted, t0, end, node_metrics)
    for fn in scenario.functions:
        run = runs[fn.name]
        latencies = run.log.latencies_ms()
        violated_total += int((latencies > run.slo_ms).sum()) if latencies.size else 0
        completed_total += run.completed
        submitted_total += run.submitted
        outcomes.append(
            FunctionOutcome(
                name=fn.name,
                model=fn.model,
                shape=traces[fn.name].shape if traces[fn.name] is not None else None,
                run=run,
            )
        )

    window = platform.gateway.log.in_window(t0, end)
    gpu_counts = [count for _, count, _ in samples]
    alloc_fractions = [
        sum(alloc.values()) / max(1, len([a for a in alloc.values() if a > 0]))
        for _, _, alloc in samples
        if any(a > 0 for a in alloc.values())
    ]
    if scheduler is not None:
        window_events = scheduler.events[before.events:]
        scale_ups = sum(1 for e in window_events if e.action == "up")
        scale_downs = sum(1 for e in window_events if e.action == "down")
        nofit_events = sum(1 for e in window_events if e.action == "nofit")
        prewarms = scheduler.predictive.prewarms - before.prewarms
        retirements = scheduler.predictive.retirements - before.retirements
        replica_series = tuple(
            # Warm-up ticks stay out: the series covers only the measured
            # window, on the window's own time base (like every other metric).
            (t - t0, dict(counts))
            for t, counts in scheduler.replica_series
            if t >= t0
        )
    else:
        scale_ups = scale_downs = nofit_events = prewarms = retirements = 0
        replica_series = ()

    if platform.lifecycle is not None:
        swap_promotions = platform.lifecycle.promotions - before.swaps
        demotions = platform.lifecycle.demotions - before.demotions
        host_evictions = platform.lifecycle.evictions - before.evictions
    else:
        swap_promotions = demotions = host_evictions = 0

    if platform.migrator is not None:
        migrations = platform.migrator.completed - before.migrations
        migration_aborts = platform.migrator.aborted - before.migration_aborts
    else:
        migrations = migration_aborts = 0

    telemetry_block = None
    if scenario.measurement.telemetry:
        hub = engine.hub
        spans = assemble_spans(hub.events)
        registry = build_registry(hub.events, spans, dropped=hub.dropped)
        telemetry_block = {
            "format": TELEMETRY_FORMAT,
            "t0": t0,
            "end": end,
            "dropped": hub.dropped,
            "events": [event.to_dict() for event in hub.events],
            "spans": [span.to_dict() for span in spans],
            "metrics": registry.to_dict(),
        }

    return ScenarioReport(
        scenario=scenario,
        quick=quick,
        t0=t0,
        duration=end - t0,
        horizon=horizon,
        functions=tuple(outcomes),
        overall_p95_ms=window.latency_percentile_ms(95),
        overall_violation_ratio=(violated_total / completed_total if completed_total else 0.0),
        submitted=submitted_total,
        completed=completed_total,
        gpu_seconds=sum(gpu_counts) * measurement.sample_dt,
        mean_gpus=sum(gpu_counts) / len(gpu_counts) if gpu_counts else 0.0,
        peak_gpus=max(gpu_counts) if gpu_counts else 0,
        mean_alloc_fraction=(
            sum(alloc_fractions) / len(alloc_fractions) if alloc_fractions else 0.0
        ),
        utilization=tuple(
            UtilizationSample(time=t - t0, gpus_in_use=count, alloc_by_node=dict(alloc))
            for t, count, alloc in samples
        ),
        node_utilization={name: util for name, util, _ in node_metrics},
        scale_ups=scale_ups,
        scale_downs=scale_downs,
        nofit_events=nofit_events,
        prewarms=prewarms,
        promotions=platform.gateway.promotions - before.promotions,
        retirements=retirements,
        replica_series=replica_series,
        swap_promotions=swap_promotions,
        demotions=demotions,
        host_evictions=host_evictions,
        migrations=migrations,
        migration_aborts=migration_aborts,
        telemetry=telemetry_block,
        mode=mode,
    )
