"""The FaST-GShare platform facade.

One object wiring the whole stack — engine, cluster (nodes with GPU + MPS +
FaST Backend + model storage), function registry, gateway, FaSTPod
controllers, and optionally the FaST-Scheduler.  The facade builds, deploys
and schedules; it measures nothing itself.  Every served window is measured
by :meth:`FaSTGShare.run_scenario` from one declarative, JSON-round-trippable
spec (cluster, fleet, workloads, autoscaler policy, measurement window)::

    report = FaSTGShare.run_scenario(load_scenario("examples/scenarios/cold_bursty.json"))
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

``sharing`` selects the mechanism under test:

==============  ==================================================================
``fast``        FaST-GShare: MPS partitions + multi-token backend + MRA placement
``timeshare``   KubeShare-like: full-SM pods, single-token passing, first fit on quota
``racing``      unmanaged MPS-less contention (pods race for the device)
``exclusive``   NVIDIA device-plugin semantics: one pod per GPU
==============  ==================================================================
"""

from __future__ import annotations

import typing as _t

from repro.faas.function import FunctionRegistry, FunctionSpec
from repro.faas.gateway import Gateway
from repro.faas.replica import FunctionReplica
from repro.k8s.cluster import Cluster
from repro.k8s.fastpod import FaSTPodController
from repro.profiler.database import ProfileDatabase
from repro.scenario.spec import AutoscalerSpec, ClusterSpec
from repro.scheduler.mra import MaximalRectanglesScheduler, NoFitError
from repro.scheduler.rectangles import EPS
from repro.scheduler.scheduler import FaSTScheduler, place, release
from repro.sim.engine import Engine


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
    def wait_ready(self, timeout: float = 60.0) -> None:
        """Advance the clock until every replica finished its cold start."""
        deadline = self.engine.now + timeout
        while self.engine.now < deadline:
            pending = [
                r
                for controller in self.controllers.values()
                for r in controller.replicas.values()
                # WARM_IDLE pods stay not-ready until promoted by design.
                if not r.ready and not r.warm_pending
            ]
            if not pending:
                return
            self.engine.run(until=min(deadline, self.engine.now + 0.25))
        raise TimeoutError("replicas did not become ready in time")

    @classmethod
    def run_scenario(cls, scenario: _t.Any, quick: bool = False) -> _t.Any:
        """Serve, measure, and report one declarative multi-tenant scenario.

        ``scenario`` is a :class:`repro.scenario.Scenario` (load committed
        specs with :func:`repro.scenario.load_scenario`); the return value is
        a :class:`repro.scenario.ScenarioReport` with one
        :class:`~repro.scenario.report.RunReport` per function plus cluster
        aggregates.  ``quick=True`` runs the deterministic shrunk variant
        (:meth:`repro.scenario.Scenario.quick`).  This is the one code path
        that measures a served window: every experiment that serves load
        constructs Scenarios and calls it.
        """
        from repro.scenario.runner import run_scenario

        return run_scenario(scenario, quick=quick)

    # -- conveniences -----------------------------------------------------------------
    def replicas(self, function: str) -> list[FunctionReplica]:
        return list(self.controllers[function].replicas.values())
