"""The declarative multi-tenant Scenario spec: one JSON document → serve, measure, report.

A :class:`Scenario` describes a complete serving experiment — the cluster
(nodes + sharing mode), a fleet of functions (model, SLO, model sharing,
replica floors), one workload per function (synthetic production shapes,
inline per-bin counts, committed trace files, stepped or constant rates),
the autoscaler policy, and the measurement window — as plain data.  It
round-trips through JSON byte-for-byte, so scenarios are committed files
(``examples/scenarios/*.json``) every bench, test, and future study replays
through the *same* code path::

    scenario = load_scenario("examples/scenarios/cold_bursty.json")
    report = FaSTGShare.run_scenario(scenario)
    print(report.summary())

The spec classes are also the platform's settings, each with one home:
``FaSTGShare(cluster, seed, placement)`` is built from a :class:`ClusterSpec`
and ``FaSTGShare.start_autoscaler`` takes an :class:`AutoscalerSpec` whole,
so hand-built platforms get the same defaults and validation as scenarios.

Validation is strict: unknown fields, unknown shapes/policies/GPU types, and
out-of-range values raise :class:`ScenarioError` with the offending path
(``functions[1].workload: unknown field(s) 'shapee'``) — a typo'd spec can
never silently run a different experiment.  Typing is strict too: booleans
take only ``true``/``false``, strings only strings, and numbers never
booleans.  One typed codec (:mod:`repro.scenario.codec`) decodes and encodes
every spec class from its field annotations.
"""

from __future__ import annotations

import dataclasses
import json
import typing as _t

from repro.autoscaler.controller import POLICIES
from repro.faas.traces import TRACE_SHAPES
from repro.gpu.specs import GPU_CATALOG
from repro.k8s.node import SHARING_MODES
from repro.models import MODEL_ZOO
from repro.scenario.codec import ScenarioError, Spec
from repro.scheduler.mra import PLACEMENT_POLICIES

#: Format tag written into serialized scenarios (bumped on breaking change).
SCENARIO_FORMAT = "fast-gshare-scenario/1"

#: Workload kinds a function entry may declare.
WORKLOAD_KINDS = ("synthetic", "counts", "trace", "steps", "constant")

#: Per workload kind: (keys always written, keys written only when set).
#: Together they are the keys that kind accepts, besides ``kind`` itself.
_KIND_KEYS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "synthetic": (("shape", "mean_rps", "bins", "bin_s"), ()),
    "counts": (("counts", "bin_s", "shape"), ()),
    "trace": (("path",), ("trace_function", "max_bins")),
    "steps": (("steps", "poisson"), ()),
    "constant": (("rps", "duration", "poisson"), ()),
}


@dataclasses.dataclass(frozen=True, slots=True)
class WorkloadSpec(Spec):
    """One function's offered load, as data.

    ``kind`` selects the arrival process:

    * ``synthetic`` — a production trace shape synthesized from the scenario
      seed (``shape``/``mean_rps``/``bins``/``bin_s``; see
      :func:`repro.faas.traces.synthesize_trace`);
    * ``counts``    — explicit per-bin invocation counts (``counts``/``bin_s``),
      the fully pinned-down replay form benches use;
    * ``trace``     — one function's counts from a committed
      ``fast-gshare-trace/1`` file (``path``, optional ``trace_function``
      naming the entry when it differs from the scenario function name,
      optional ``max_bins`` replaying only the first N bins — the knob
      ``quick()`` uses so committed multi-hour slices smoke-run in CI);
    * ``steps``     — a piecewise-constant rate staircase (``steps`` of
      ``[duration_s, rps]`` pairs, Fig. 12 style);
    * ``constant``  — a fixed rate over ``duration`` seconds
      (``poisson`` jitters arrivals; false spaces them evenly).
    """

    kind: str
    shape: str = "diurnal"
    mean_rps: float = 10.0
    bins: int = 30
    bin_s: float = 60.0
    counts: tuple[int, ...] = ()
    path: str = ""
    trace_function: str = ""
    max_bins: int = 0
    steps: tuple[tuple[float, float], ...] = ()
    rps: float = 0.0
    duration: float = 0.0
    poisson: bool = True

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ScenarioError(f"workload: unknown kind {self.kind!r}; known: {WORKLOAD_KINDS}")
        if self.max_bins and self.kind != "trace":
            raise ScenarioError("workload: max_bins only applies to trace workloads")
        if self.kind == "synthetic":
            if self.shape not in TRACE_SHAPES:
                raise ScenarioError(
                    f"workload: unknown shape {self.shape!r}; known: {TRACE_SHAPES}"
                )
            if self.mean_rps < 0:
                raise ScenarioError("workload: mean_rps must be non-negative")
            if self.bins < 1:
                raise ScenarioError("workload: bins must be >= 1")
            if self.bin_s <= 0:
                raise ScenarioError("workload: bin_s must be positive")
        elif self.kind == "counts":
            if not self.counts:
                raise ScenarioError("workload: counts needs at least one bin")
            if any(c < 0 for c in self.counts):
                raise ScenarioError("workload: counts must be non-negative")
            if self.bin_s <= 0:
                raise ScenarioError("workload: bin_s must be positive")
        elif self.kind == "trace":
            if not self.path:
                raise ScenarioError("workload: trace kind needs a 'path'")
            if self.max_bins < 0:
                raise ScenarioError("workload: max_bins must be >= 0 (0 = all bins)")
        elif self.kind == "steps":
            if not self.steps:
                raise ScenarioError("workload: steps needs at least one [duration, rps] pair")
            for duration, rps in self.steps:
                if duration <= 0 or rps < 0:
                    raise ScenarioError(f"workload: bad step [{duration}, {rps}]")
        else:  # constant
            if self.rps < 0:
                raise ScenarioError("workload: rps must be non-negative")
            if self.duration <= 0:
                raise ScenarioError("workload: duration must be positive")

    def _emits(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        always, when_set = _KIND_KEYS[self.kind]
        return ("kind", *always), when_set


@dataclasses.dataclass(frozen=True, slots=True)
class ScenarioFunction(Spec):
    """One tenant: a function, its model/SLO, and its offered workload.

    ``slo_ms=None`` takes the model's calibrated SLO.  ``min_replicas`` is
    the function's replica floor (it becomes
    :attr:`~repro.faas.function.FunctionSpec.min_replicas`);
    ``initial_replicas`` pods are deployed warm before the measured window
    opens (default: ``max(1, min_replicas)``), each at the function's
    efficient SLO-feasible point.  A static deployment may instead list
    explicit ``[sm%, quota]`` ``pods``, placed by the cluster's sharing mode.
    """

    name: str
    model: str
    workload: WorkloadSpec
    slo_ms: float | None = None
    model_sharing: bool = True
    min_replicas: int = 1
    initial_replicas: int | None = None
    #: Memory-tier weight-size override (MB): what parks in host RAM and
    #: transits the fabric on swap-in.  ``None`` = the model's weights_mb.
    weight_mb: float | None = None
    pods: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.weight_mb is not None and self.weight_mb <= 0:
            raise ScenarioError(f"function {self.name!r}: weight_mb must be positive")
        if any(not (0 < sm <= 100 and 0 < quota <= 1) for sm, quota in self.pods):
            raise ScenarioError(f"function {self.name!r}: pods need sm% in (0, 100], quota (0, 1]")
        if self.pods and self.initial_replicas is not None:
            raise ScenarioError(f"function {self.name!r}: give pods or initial_replicas, not both")
        if not self.name:
            raise ScenarioError("function: name must be non-empty")
        if self.model not in MODEL_ZOO:
            raise ScenarioError(
                f"function {self.name!r}: unknown model {self.model!r}; "
                f"known: {sorted(MODEL_ZOO)}"
            )
        if self.slo_ms is not None and self.slo_ms <= 0:
            raise ScenarioError(f"function {self.name!r}: slo_ms must be positive")
        if self.min_replicas < 0:
            raise ScenarioError(f"function {self.name!r}: min_replicas must be >= 0")
        if self.initial_replicas is not None and self.initial_replicas < 0:
            raise ScenarioError(f"function {self.name!r}: initial_replicas must be >= 0")

    @property
    def initial_count(self) -> int:
        """Pods deployed before the measured window (>=1 unless overridden)."""
        if self.pods:
            return len(self.pods)
        if self.initial_replicas is not None:
            return self.initial_replicas
        return max(1, self.min_replicas)


@dataclasses.dataclass(frozen=True, slots=True)
class DefragSpec(Spec):
    """Background defragmentation knobs (see :mod:`repro.migrate`).

    When present on a cluster, the platform runs the live-migration
    defragmenter: each scheduler tick it measures cluster fragmentation
    (1 − largest-free-rectangle / total-free) and, above ``threshold``,
    starts up to ``max_moves_per_tick`` make-before-break migrations that
    consolidate scattered rectangles onto fewer GPUs.  Absent (the
    default), no migration machinery is constructed and runs are
    byte-identical to older baselines.
    """

    threshold: float = 0.5
    max_moves_per_tick: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ScenarioError("cluster: defrag threshold must be in (0, 1)")
        if self.max_moves_per_tick < 1:
            raise ScenarioError("cluster: defrag max_moves_per_tick must be >= 1")


@dataclasses.dataclass(frozen=True, slots=True)
class ClusterSpec(Spec):
    """The serving cluster: per-node GPU types (or N homogeneous nodes).

    The platform is built from this object (``FaSTGShare(cluster, ...)``;
    ``FaSTGShare.build(**kw)`` forwards its cluster keywords here).

    ``host_memory_mb`` enables the host↔GPU memory tier: that much host RAM
    per node is available for ``HOST_RESIDENT`` pods (weights parked off the
    GPU; see :mod:`repro.memtier`).  ``fabric_gbps`` is each node's host↔GPU
    transfer-fabric bandwidth in gigabytes/s (PCIe 3.0 x16 ≈ 16).
    ``defrag`` (optional) turns on live-migration background
    defragmentation; absent means no migration machinery at all.
    """

    nodes: _t.Annotated[int | tuple[str, ...], "an int or GPU-type list"] = 1
    gpu: str = "V100"
    sharing: str = "fast"
    window: float = 0.1
    host_memory_mb: float | None = None
    fabric_gbps: float = 16.0
    defrag: DefragSpec | None = None

    def __post_init__(self) -> None:
        if self.host_memory_mb is not None and self.host_memory_mb <= 0:
            raise ScenarioError("cluster: host_memory_mb must be positive (or null)")
        if self.fabric_gbps <= 0:
            raise ScenarioError("cluster: fabric_gbps must be positive")
        if isinstance(self.nodes, int):
            if self.nodes < 1:
                raise ScenarioError("cluster: need at least one node")
        else:
            if not self.nodes:
                raise ScenarioError("cluster: need at least one node")
            for name in self.nodes:
                if name not in GPU_CATALOG:
                    raise ScenarioError(
                        f"cluster: unknown GPU type {name!r}; known: {sorted(GPU_CATALOG)}"
                    )
        if self.gpu not in GPU_CATALOG:
            raise ScenarioError(
                f"cluster: unknown GPU type {self.gpu!r}; known: {sorted(GPU_CATALOG)}"
            )
        if self.sharing not in SHARING_MODES:
            raise ScenarioError(
                f"cluster: unknown sharing mode {self.sharing!r}; known: {SHARING_MODES}"
            )
        if self.window <= 0:
            raise ScenarioError("cluster: window must be positive")

    def _emits(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        # ``gpu`` only means something for N homogeneous nodes.
        gpu = ("gpu",) if isinstance(self.nodes, int) else ()
        return ("nodes", "sharing", *gpu), ("window", "host_memory_mb", "fabric_gbps", "defrag")


@dataclasses.dataclass(frozen=True, slots=True)
class AutoscalerSpec(Spec):
    """The control plane: the FaST-Scheduler's one set of settings.

    ``FaSTGShare.start_autoscaler`` takes this object whole, so these are
    the only defaults and the only validation of each setting.  ``policy``
    is a :data:`~repro.autoscaler.controller.POLICIES` name (``oracle``
    builds per-function trace oracles from each workload's resolved counts,
    lead ``oracle_lead_s``).  ``interval`` is the tick period, ``headroom``
    the SLO safety factor on the predicted load, ``scale_down_cooldown`` the
    seconds after a scale-up during which nothing drains, and
    ``down_hysteresis`` the capacity surplus fraction ignored as noise.
    ``placement`` is one of :data:`~repro.scheduler.mra.PLACEMENT_POLICIES`
    and scores the platform's one placement ledger, so it also steers a
    static ``fast`` deployment.  ``enabled=False`` runs a static deployment
    (each function's explicit ``pods``, or its ``initial_replicas`` pods at
    the efficient point; no control loop) — the form the non-``fast``
    sharing baselines use.
    """

    enabled: bool = True
    policy: str = "reactive"
    interval: float = 1.0
    headroom: float = 1.3
    scale_down_cooldown: float = 8.0
    down_hysteresis: float = 0.1
    latency_headroom: float = 0.6
    placement: str = "binpack"
    forecast_period_s: float | None = None
    oracle_lead_s: float = 4.0

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ScenarioError(
                f"autoscaler: unknown policy {self.policy!r}; known: {tuple(POLICIES)}"
            )
        if self.placement not in PLACEMENT_POLICIES:
            raise ScenarioError(
                f"autoscaler: unknown placement {self.placement!r}; known: {PLACEMENT_POLICIES}"
            )
        if self.interval <= 0:
            raise ScenarioError("autoscaler: interval must be positive")
        if self.headroom < 1.0:
            raise ScenarioError("autoscaler: headroom must be >= 1")
        if self.oracle_lead_s < 0:
            raise ScenarioError("autoscaler: oracle_lead_s must be >= 0")


@dataclasses.dataclass(frozen=True, slots=True)
class MeasurementSpec(Spec):
    """The measured window: optional warm-up, post-horizon drain, sampling.

    ``telemetry: true`` additionally records the run's structured event
    stream (:mod:`repro.obs`) and attaches spans + metrics as an optional
    ``telemetry`` block on the report.  Off by default and zero-cost when
    off, so telemetry-off reports stay byte-identical to older baselines.
    """

    warmup_s: float = 0.0
    drain_s: float = 2.0
    sample_dt: float = 1.0
    telemetry: bool = False

    def __post_init__(self) -> None:
        if self.warmup_s < 0:
            raise ScenarioError("measurement: warmup_s must be >= 0")
        if self.drain_s < 0:
            raise ScenarioError("measurement: drain_s must be >= 0")
        if self.sample_dt <= 0:
            raise ScenarioError("measurement: sample_dt must be positive")


@dataclasses.dataclass(frozen=True, slots=True)
class Scenario(Spec):
    """One complete, declarative multi-tenant serving experiment."""

    _format = SCENARIO_FORMAT
    _always = ("seed", "cluster", "autoscaler", "measurement")

    name: str
    functions: tuple[ScenarioFunction, ...]
    cluster: ClusterSpec = ClusterSpec()
    autoscaler: AutoscalerSpec = AutoscalerSpec()
    measurement: MeasurementSpec = MeasurementSpec()
    seed: int = 42
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario: name must be non-empty")
        if not self.functions:
            raise ScenarioError("scenario: need at least one function")
        names = [f.name for f in self.functions]
        if len(set(names)) != len(names):
            raise ScenarioError(f"scenario: duplicate function names: {names}")
        if self.autoscaler.enabled and self.cluster.sharing != "fast":
            raise ScenarioError(
                "scenario: the autoscaler requires sharing='fast' "
                f"(got {self.cluster.sharing!r}); set autoscaler.enabled=false "
                "for static baseline modes"
            )
        if self.autoscaler.enabled and any(fn.pods for fn in self.functions):
            raise ScenarioError("scenario: pods deploy statically; set autoscaler.enabled=false")
        if (
            self.autoscaler.enabled
            and self.autoscaler.policy == "memtier"
            and self.cluster.host_memory_mb is None
        ):
            raise ScenarioError(
                "scenario: policy 'memtier' needs cluster.host_memory_mb "
                "(the host RAM budget HOST_RESIDENT pods park in)"
            )

    def function(self, name: str) -> ScenarioFunction:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function {name!r} in scenario {self.name!r}")

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario: invalid JSON ({exc})") from exc
        return cls.from_dict(payload)

    # -- quick variant ----------------------------------------------------------
    def quick(self) -> "Scenario":
        """A deterministic shrunk variant for smoke runs (``--quick``).

        Synthetic workloads shrink to <=8 bins of <=3 s; ``counts`` truncate
        to their first 8 bins; ``steps``/``constant`` horizons scale down to
        <=40 s / <=10 s; ``trace`` workloads replay only their first 8 bins
        (``max_bins``), so committed multi-hour slices smoke-run in CI
        without bespoke quick fixtures.  The autoscaler tick tightens to
        <=0.5 s so the short horizon still sees scaling decisions.
        """
        functions = tuple(
            dataclasses.replace(fn, workload=_quick_workload(fn.workload)) for fn in self.functions
        )
        autoscaler = dataclasses.replace(
            self.autoscaler, interval=min(self.autoscaler.interval, 0.5)
        )
        return dataclasses.replace(self, functions=functions, autoscaler=autoscaler)


def _quick_workload(spec: WorkloadSpec) -> WorkloadSpec:
    if spec.kind == "synthetic":
        return dataclasses.replace(spec, bins=min(spec.bins, 8), bin_s=min(spec.bin_s, 3.0))
    if spec.kind == "counts":
        return dataclasses.replace(spec, counts=spec.counts[:8])
    if spec.kind == "steps":
        total = sum(d for d, _ in spec.steps)
        if total <= 40.0:
            return spec
        factor = 40.0 / total
        return dataclasses.replace(spec, steps=tuple((d * factor, r) for d, r in spec.steps))
    if spec.kind == "constant":
        return dataclasses.replace(spec, duration=min(spec.duration, 10.0))
    # trace: replay only the first bins of the committed file.
    quick_bins = min(spec.max_bins, 8) if spec.max_bins else 8
    return dataclasses.replace(spec, max_bins=quick_bins)


def load_scenario(path: str) -> Scenario:
    """Load a committed scenario JSON file from ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read scenario file ({exc})") from exc
    try:
        return Scenario.from_json(text)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
