"""The FaST-GShare platform facade.

One object wiring the whole stack — engine, cluster (nodes with GPU + MPS +
FaST Backend + model storage), function registry, gateway, FaSTPod
controllers, and optionally the FaST-Scheduler — behind a small experiment
API::

    platform = FaSTGShare.build(nodes=4, gpu="V100", sharing="fast", seed=42,
                                placement="binpack")
    platform.register_function("classify", model="resnet50", slo_ms=69)
    platform.deploy("classify", configs=[(12, 0.4)] * 4)
    report = platform.run_workload("classify", rps=120, duration=60)
    print(report.summary())

Every setting has one home.  The platform is built from a
:class:`~repro.scenario.spec.ClusterSpec` (``build``'s keywords besides
``seed`` and ``placement`` only forward into it, so hand-built platforms get
its validation too); :meth:`FaSTGShare.start_autoscaler` takes an
:class:`~repro.scenario.spec.AutoscalerSpec` whole; and each function
carries its own replica floor (``register_function(min_replicas=)``).

In ``fast`` mode the platform keeps exactly one Maximal Rectangles ledger
(``platform.placement``, scored by the ``placement`` policy): ``deploy`` and
the FaST-Scheduler started by :meth:`FaSTGShare.start_autoscaler` place into
and release from the same object, so neither can over-commit a GPU the
other filled.  The baseline modes keep no ledger at all: they read each
GPU's occupancy from the pods its node hosts.

Multi-tenant experiments use the declarative Scenario API instead — one
JSON-round-trippable spec describing cluster, fleet, workloads, autoscaler
policy, and measurement windows, evaluated through a single code path::

    report = FaSTGShare.run_scenario(load_scenario("examples/scenarios/cold_bursty.json"))
    print(report.summary())

``sharing`` selects the mechanism under test:

==============  ==================================================================
``fast``        FaST-GShare: MPS partitions + multi-token backend + MRA placement
``timeshare``   KubeShare-like: full-SM pods, single-token passing, first fit on quota
``racing``      unmanaged MPS-less contention (pods race for the device)
``exclusive``   NVIDIA device-plugin semantics: one pod per GPU
==============  ==================================================================
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from repro.faas.function import FunctionRegistry, FunctionSpec
from repro.faas.gateway import Gateway
from repro.faas.loadgen import ClosedLoopClient, OpenLoopGenerator
from repro.faas.replica import FunctionReplica
from repro.faas.requests import RequestLog
from repro.faas.slo import violation_ratio
from repro.faas.workload import StepTrace, Workload
from repro.k8s.cluster import Cluster
from repro.k8s.fastpod import FaSTPodController
from repro.profiler.database import ProfileDatabase
from repro.scenario.spec import AutoscalerSpec, ClusterSpec
from repro.scheduler.mra import MaximalRectanglesScheduler, NoFitError
from repro.scheduler.rectangles import EPS
from repro.scheduler.scheduler import FaSTScheduler, place, release
from repro.sim.engine import Engine


@dataclasses.dataclass(slots=True)
class RunReport:
    """Aggregated results of one measured workload window."""

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

    def summary(self) -> str:
        wait_line = (
            f"queue wait {self.queue_wait_ms_mean:.1f} ms  "
            f"cold wait {self.cold_wait_ms_mean:.1f} ms  "
            f"cold hits {self.cold_hit_requests}"
        )
        if self.swap_hit_requests:
            wait_line += (
                f"  swap wait {self.swap_wait_ms_mean:.1f} ms  "
                f"swap hits {self.swap_hit_requests}"
            )
        lines = [
            f"function={self.function}  window={self.duration:.1f}s  "
            f"submitted={self.submitted}  completed={self.completed}",
            f"throughput={self.throughput:.2f} req/s  p50={self.p50_ms:.1f} ms  "
            f"p95={self.p95_ms:.1f} ms  p99={self.p99_ms:.1f} ms",
            f"SLO={self.slo_ms:.0f} ms  violations={100 * self.slo_violation_ratio:.2f}%",
            wait_line,
        ]
        for name, util, occ in self.node_metrics:
            lines.append(f"  {name}: GPU util {util:5.1f}%   SM occupancy {occ:5.2f}%")
        return "\n".join(lines)


class FaSTGShare:
    """The assembled platform (see module docstring)."""

    def __init__(self, cluster: ClusterSpec, seed: int = 42, placement: str = "binpack"):
        """``placement`` is the MRA node-scoring policy of the platform's
        ledger (:data:`repro.scheduler.mra.PLACEMENT_POLICIES`)."""
        self.cluster_spec = cluster
        self.engine = Engine(seed=seed)
        self.cluster = Cluster(
            self.engine,
            nodes=cluster.nodes,
            gpu=cluster.gpu,
            sharing_mode=cluster.sharing,
            window=cluster.window,
            host_memory_mb=cluster.host_memory_mb,
            fabric_gbps=cluster.fabric_gbps,
        )
        self.registry = FunctionRegistry()
        self.gateway = Gateway(self.engine, self.registry)
        self.controllers: dict[str, FaSTPodController] = {}
        self.scheduler: FaSTScheduler | None = None
        #: memory tier: the replica-lifecycle API, wired by
        #: :meth:`start_autoscaler` when the cluster has host memory.
        self.lifecycle = None
        #: live migration: the migration primitive and its background
        #: defragmenter, wired by :meth:`start_autoscaler` when the cluster
        #: spec carries a ``defrag`` block (both None otherwise).
        self.migrator = None
        self.defragmenter = None
        node_names = [n.name for n in self.cluster.nodes]
        #: The one MRA ledger of every GPU's SM×quota space: manual fast
        #: deploys, the FaST-Scheduler, the memory tier and the migrator
        #: all place into (and release from) this object.
        self.placement = MaximalRectanglesScheduler(
            node_names, policy=placement, node_factors=self.cluster.speed_factors()
        )

    @classmethod
    def build(cls, seed: int = 42, placement: str = "binpack", **cluster) -> "FaSTGShare":
        """A platform over ``ClusterSpec(**cluster)``; ``nodes`` may be any
        sequence of GPU type names."""
        nodes = cluster.get("nodes")
        if nodes is not None and not isinstance(nodes, int):
            cluster["nodes"] = tuple(nodes)
        return cls(ClusterSpec(**cluster), seed=seed, placement=placement)

    # -- function management ------------------------------------------------------
    def register_function(
        self,
        name: str,
        model: str,
        slo_ms: float | None = None,
        model_sharing: bool = False,
        weight_mb: float | None = None,
        min_replicas: int = 1,
    ) -> FunctionSpec:
        spec = FunctionSpec.from_model(
            name,
            model,
            slo_ms,
            use_model_sharing=model_sharing,
            weight_mb=weight_mb,
            min_replicas=min_replicas,
        )
        self.registry.register(spec)
        self.controllers[name] = FaSTPodController(self.engine, self.cluster, self.gateway, spec)
        return spec

    # -- deployment ------------------------------------------------------------------
    def deploy(
        self,
        function: str,
        configs: _t.Sequence[tuple[float, float] | tuple[float, float, float]],
        node: int | str | None = None,
    ) -> list[FunctionReplica]:
        """Deploy replicas with explicit (sm%, quota[, quota_limit]) configs.

        Placement follows the platform's sharing mode unless ``node`` pins a
        target (used by single-GPU experiments like Fig. 10's racing runs).
        """
        controller = self.controllers[function]
        replicas = []
        for config in configs:
            if len(config) == 2:
                sm, q_req = config  # type: ignore[misc]
                q_lim = q_req
            else:
                sm, q_req, q_lim = config  # type: ignore[misc]
            replicas.append(self._deploy_one(controller, sm, q_req, q_lim, node))
        return replicas

    def _deploy_one(
        self,
        controller: FaSTPodController,
        sm: float,
        q_req: float,
        q_lim: float,
        node: int | str | None,
    ) -> FunctionReplica:
        sharing = self.cluster_spec.sharing
        if node is not None:
            target = self.cluster.node(node)
            replica = controller.scale_up(target, sm, q_req, q_lim)
            if sharing == "fast":
                # Pinned deployments may deliberately over-subscribe.
                self.placement.bind_at(
                    replica.pod.pod_id, target.name, q_lim * 100.0, sm, require_fit=False
                )
            return replica
        if sharing == "fast":
            return place(self.cluster, self.placement, controller, sm, q_req, q_lim)
        if sharing == "racing":
            # Pile pods onto the first node unless pinned.
            return controller.scale_up(self.cluster.node(0), sm, q_req, q_lim)
        if sharing == "timeshare":
            # KubeShare-style: first fit by time quota (every pod sees all SMs).
            free = [n for n in self.cluster.nodes if n.quota_in_use + q_lim <= 1.0 + EPS]
        else:
            # Exclusive: a whole GPU per pod.  A draining pod keeps its
            # container, so its GPU stays taken until the eviction.
            free = [n for n in self.cluster.nodes if not n.containers]
        if not free:
            raise NoFitError(f"{controller.function.name}: no GPU fits a {sharing} pod (q={q_lim})")
        return controller.scale_up(free[0], sm, q_req, q_lim)

    def scale_down(self, function: str, pod_id: str, drain: bool = True) -> str | None:
        """Remove one replica and free its rectangle, if it holds one; returns
        that node (see :func:`~repro.scheduler.scheduler.release`)."""
        return release(self.placement, self.controllers[function], pod_id, drain=drain)

    # -- auto-scaling ---------------------------------------------------------------
    def start_autoscaler(
        self,
        database: ProfileDatabase,
        settings: AutoscalerSpec = AutoscalerSpec(),
        *,
        forecasters: _t.Mapping[str, _t.Any] | None = None,
        prewarm: _t.Any | None = None,
    ) -> FaSTScheduler:
        """Attach and start the FaST-Scheduler over the given profile DB.

        ``settings.policy`` selects the autoscaling mode, one of
        :data:`~repro.autoscaler.controller.POLICIES`: ``reactive`` is the
        paper's Algorithm 1 alone (the degenerate no-forecast configuration
        of the predictive controller); the predictive kinds
        (``ewma``/``seasonal``/``histogram``/``hybrid``) add per-function
        forecasting, WARM_IDLE pre-warming, keep-alive windows, and
        scale-to-zero; ``oracle`` requires explicit trace-built
        ``forecasters``.  ``prewarm`` overrides the policy's
        :class:`~repro.autoscaler.policy.PreWarmPolicy`.  ``settings``'
        ``enabled``, ``placement`` and ``oracle_lead_s`` belong to whoever
        builds the platform and the oracles; the scheduler does not read them.

        A ``defrag`` block on the platform's cluster spec additionally wires
        the live-migration controller and its background defragmenter into
        the scheduler tick; without one neither exists and no migration code
        runs.
        """
        from repro.autoscaler.controller import build_autoscaler

        prewarm_policy, built = build_autoscaler(
            settings.policy,
            self.controllers,
            bin_s=self.gateway.rps_bin_s,
            period_s=settings.forecast_period_s,
            forecasters=forecasters,
            prewarm=prewarm,
        )
        if any(node.host_memory is not None for node in self.cluster.nodes):
            # Memory tier on: one lifecycle object shared by every layer —
            # gateway (demand swap-ins), scheduler (scale-up prefers parked
            # pods), and the predictive policy (demote/promote/evict).
            from repro.memtier import ReplicaLifecycle

            self.lifecycle = ReplicaLifecycle(
                self.engine,
                self.cluster,
                self.controllers,
                placement=self.placement,
            )
            self.gateway.lifecycle = self.lifecycle
        defrag = self.cluster_spec.defrag
        if defrag is not None:
            from repro.migrate import Defragmenter, MigrationController

            self.migrator = MigrationController(
                self.engine,
                self.cluster,
                self.gateway,
                self.controllers,
                placement=self.placement,
            )
            self.defragmenter = Defragmenter(
                self.engine,
                self.migrator,
                self.placement,
                self.cluster,
                threshold=defrag.threshold,
                max_moves_per_tick=defrag.max_moves_per_tick,
            )
        self.scheduler = FaSTScheduler(
            self.engine,
            self.cluster,
            self.gateway,
            database,
            self.controllers,
            self.placement,
            settings,
            policy=prewarm_policy,
            forecasters=built,
            lifecycle=self.lifecycle,
            defragmenter=self.defragmenter,
        )
        self.scheduler.start()
        return self.scheduler

    # -- running ------------------------------------------------------------------------
    def wait_ready(self, function: str | None = None, timeout: float = 60.0) -> None:
        """Advance the clock until every replica finished its cold start."""
        deadline = self.engine.now + timeout
        names = [function] if function else list(self.controllers)
        while self.engine.now < deadline:
            pending = [
                r
                for name in names
                for r in self.controllers[name].replicas.values()
                # WARM_IDLE pods stay not-ready until promoted by design.
                if not r.ready and not r.warm_pending
            ]
            if not pending:
                return
            self.engine.run(until=min(deadline, self.engine.now + 0.25))
        raise TimeoutError("replicas did not become ready in time")

    def run_workload(
        self,
        function: str,
        workload: Workload | None = None,
        rps: float | None = None,
        duration: float | None = None,
        poisson: bool = True,
        warm_start: bool = True,
    ) -> RunReport:
        """Drive one function open-loop and report over the workload window."""
        if workload is None:
            if rps is None or duration is None:
                raise ValueError("give either a Workload or rps+duration")
            workload = StepTrace([(duration, rps)], poisson=poisson)
        if warm_start:
            self.wait_ready(function)
        t0 = self.engine.now
        self.cluster.reset_metrics()
        submitted_before = self.gateway.submitted[function]
        OpenLoopGenerator(self.engine, self.gateway, function, workload)
        self.engine.run(until=t0 + workload.duration)
        return self._report_one(function, t0, self.gateway.submitted[function] - submitted_before)

    def run_closed_loop(
        self,
        function: str,
        concurrency: int,
        duration: float,
        warm_start: bool = True,
    ) -> RunReport:
        """Drive one function with fixed virtual users (k6 VU semantics)."""
        if warm_start:
            self.wait_ready(function)
        t0 = self.engine.now
        self.cluster.reset_metrics()
        submitted_before = self.gateway.submitted[function]
        client = ClosedLoopClient(self.engine, self.gateway, function, concurrency=concurrency)
        self.engine.run(until=t0 + duration)
        client.stop()
        submitted = self.gateway.submitted[function] - submitted_before
        return self._report_one(function, t0, submitted)

    @classmethod
    def run_scenario(cls, scenario: _t.Any, quick: bool = False) -> _t.Any:
        """Serve, measure, and report one declarative multi-tenant scenario.

        ``scenario`` is a :class:`repro.scenario.Scenario` (load committed
        specs with :func:`repro.scenario.load_scenario`); the return value is
        a :class:`repro.scenario.ScenarioReport` with one :class:`RunReport`
        per function plus cluster aggregates.  ``quick=True`` runs the
        deterministic shrunk variant (:meth:`repro.scenario.Scenario.quick`).
        This is the one code path every multi-function experiment routes
        through (fig11/fig12/fig14/fig15 construct Scenarios and call it).
        """
        from repro.scenario.runner import run_scenario

        return run_scenario(scenario, quick=quick)

    def _report_one(self, function: str, t0: float, submitted: int) -> RunReport:
        """One function's report over ``[t0, now)``."""
        node_metrics = self.cluster.node_metrics()
        return self._reports({function: submitted}, t0, self.engine.now, node_metrics)[function]

    def _reports(
        self,
        submitted: _t.Mapping[str, int],
        t0: float,
        t1: float,
        node_metrics: list[tuple[str, float, float]],
    ) -> dict[str, RunReport]:
        """A :class:`RunReport` per function of ``submitted`` (its arrivals
        in the window) over the requests that arrived and completed in
        ``[t0, t1)`` (:meth:`~repro.faas.requests.Request.in_window`): one
        pass groups the log by function; ``node_metrics`` is read once by
        the caller and shared."""
        windows = {function: RequestLog() for function in submitted}
        for request in self.gateway.log.completed:
            if request.in_window(t0, t1):
                window = windows.get(request.function)
                if window is not None:
                    window.completed.append(request)
        duration = t1 - t0
        reports = {}
        for function, window in windows.items():
            spec = self.registry.get(function)
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

    # -- conveniences -----------------------------------------------------------------
    def rng(self, name: str) -> np.random.Generator:
        return self.engine.rng.stream(name)

    def replicas(self, function: str) -> list[FunctionReplica]:
        return list(self.controllers[function].replicas.values())
