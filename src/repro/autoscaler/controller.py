"""The predictive autoscaler controller.

Wraps the reactive Heuristic-Scaling inner loop (Algorithm 1, unchanged)
with a forecasting outer layer driven from the FaST-Scheduler tick:

1. **observe** — feed the gateway's completed arrival bins to every
   per-function forecaster;
2. **plan** — run the :class:`~repro.autoscaler.policy.PreWarmPolicy` over
   one view per awake function and keep the plan, which is all the
   scheduler's gap reads: :meth:`PredictiveAutoscaler.predicted_rps` blends
   the reactive gateway signal with each view's forecast (max of both), and
   the plan's floors open the scale-to-zero path for cold-tail functions;
3. **act** — pre-warm pods are MRA-placed in ``WARM_IDLE`` (memory held,
   zero quota); expired warm pods retire.

The **reactive degenerate** — no forecasters, no policy — is exactly the
pre-existing behaviour: ``predicted_rps`` passes the gateway signal
through, ``on_tick`` only ingests observations, and no warm pods exist.
``fig12`` and every other reactive experiment route through this same
controller, so there is one control path, not two.

**Sleep.** A tick views only functions with something to decide.  A
function *sleeps* — no ingest, no view, no capacity snapshot, no gap, and
so no plan kept for it — when its next view provably plans the same as this
one and its gap provably stays closed.  That holds when nothing is pending,
its parked pods are settled ``HOST_RESIDENT``, the policy applied no action
for it (a pre-warm the no-fit back-off dropped counts as none), the bin of
its last arrival is already ingested, and it holds no more serving pods
than its floor with no demand above their capacity.  Without arrivals the
gateway signal and the forecast rate then only fall, so the gap stays shut.
The view's other inputs hold still too, so it sleeps until the earliest
instant that could change the plan:

* the forecaster's next answer change
  (:meth:`~repro.autoscaler.forecast.Forecaster.quiet_until`);
* the policy's time tests (:meth:`~repro.autoscaler.policy.PreWarmPolicy.wake_at`):
  the keep-alive expiry, the end of the spare window, the predicted
  activity coming within the lead time, memtier's host keep-alive;
* the end of the pre-warm no-fit back-off, if that dropped a pre-warm.

It wakes earlier on a new arrival or any change to its replicas, parked
pods or promotions; waking early only costs a view.  A never-invoked
function with a quiet forecaster starts asleep.  Without a policy nothing
goes back to sleep.

Waking is pushed, not polled: ``Gateway.submit`` and every replica or
parked-pod change in the FaSTPod controller add the function to the
gateway's ``touched`` set, and deadlines wait in a heap.  :meth:`wake` asks
:meth:`dormant` — still the only judge — about those candidates alone, so a
tick costs O(woken) rather than O(sleepers).  A sleeper that is neither
touched nor due is dormant: each of its wake conditions needs one of those
events first.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import math
import typing as _t

from repro.autoscaler.forecast import Forecaster, OracleForecaster, make_forecaster
from repro.autoscaler.policy import (
    FunctionView,
    PolicyDecision,
    PreWarmAction,
    PreWarmPolicy,
    RetireAction,
)
from repro.k8s.objects import PodPhase
from repro.scheduler.scheduler import release

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.scheduler.scheduler import FaSTScheduler

#: Seconds a function's pre-warms pause after one found no GPU, so a full
#: cluster is not re-searched every tick.
NOFIT_BACKOFF_S = 5.0

#: How much earlier than its deadline a sleeper wakes.  A deadline is a sum
#: or difference (``last + spare``) that the plan's own test computes the
#: other way round (``now - last <= spare``), so either can round past the
#: other; waking a nanosecond early costs at most one view.
WAKE_EARLY_S = 1e-9


@dataclasses.dataclass(frozen=True, slots=True)
class AutoscaleEvent:
    """One applied predictive decision (for experiment timelines)."""

    time: float
    function: str
    action: str  # "prewarm" | "retire" | "prewarm-nofit"
    reason: str


class PredictiveAutoscaler:
    """Forecast-driven pre-warming layer over the reactive scaler.

    Built by the :class:`~repro.scheduler.scheduler.FaSTScheduler` whose
    tick drives it; the engine, gateway, controllers, placement and memory
    tier are the scheduler's.
    """

    def __init__(
        self,
        scheduler: "FaSTScheduler",
        policy: PreWarmPolicy | None = None,
        forecasters: _t.Mapping[str, Forecaster] | None = None,
    ):
        self.scheduler = scheduler
        self.engine = scheduler.engine
        self.gateway = scheduler.gateway
        self.controllers = scheduler.controllers
        self.policy = policy
        self.forecasters = dict(forecasters or {})
        self._nofit_until: dict[str, float] = {}
        self.events: list[AutoscaleEvent] = []
        self.prewarms = 0
        self.retirements = 0
        #: This tick's plan, and the forecast rate of each function it viewed:
        #: all the scheduler's gap reads (empty for the reactive degenerate).
        self._decision = PolicyDecision(actions=[], min_replicas={})
        self._rates: dict[str, float | None] = {}
        self._names = sorted(self.controllers)
        #: Sleeping functions: name -> (arrivals, replica ids, parked pod
        #: ids, deadline) as of falling asleep; any change to the first
        #: three, or reaching the deadline, wakes the function.
        self._asleep: dict[str, tuple[int, frozenset[str], frozenset[str], float]] = {
            name: (0, frozenset(), frozenset(), math.inf)
            for name in self._names
            if name not in self.forecasters or self.forecasters[name].quiet_until_observed
        }
        #: Finite sleep deadlines as a heap of (wake_at, name); entries of
        #: functions that have since woken are dropped when they come due.
        self._deadlines: list[tuple[float, str]] = []

    @property
    def predictive(self) -> bool:
        """False for the reactive degenerate (no forecast, no pre-warming)."""
        return self.policy is not None and bool(self.forecasters)

    # -- signals the scheduler consumes ---------------------------------------------
    def predicted_rps(self, function: str) -> float:
        """The load signal for Algorithm 1: the reactive gateway signal
        blended with the rate this tick's view forecast.  Exact: no on-tick
        action touches a forecaster or the arrival bins it ingests."""
        if function in self._decision.idle:
            # Past the keep-alive window: zero the signal outright, or the
            # forecast's exponential residue blocks draining the last pod.
            return 0.0
        base = self.gateway.predicted_rps(function)
        prediction = self._rates.get(function)
        return base if prediction is None else max(base, prediction)

    def min_replicas_for(self, function: str, default: int) -> int:
        """This tick's floor (0 for scale-to-zero when keep-alive expired)."""
        return self._decision.min_replicas.get(function, default)

    def dormant(self, function: str) -> bool:
        """Asleep, and nothing has woken it yet: no new arrival, no change to
        its replicas or parked pods, no promotion, and its wake deadline not
        reached.  Its gap stays closed, so the scheduler skips it.  (A
        policy acting on never-invoked functions, which start asleep, must
        pair with a forecaster that is not quiet until observed.)"""
        sleep = self._asleep.get(function)
        if sleep is None:
            return False
        arrivals, replicas, parked, wake_at = sleep
        controller = self.controllers[function]
        gateway = self.gateway
        return (
            self.engine.now < wake_at
            and gateway.submitted.get(function, 0) == arrivals
            and controller.replicas.keys() == replicas
            and controller.parked.keys() == parked
            and function not in gateway.promoted
        )

    def wake(self) -> _t.Container[str]:
        """Wake every sleeper :meth:`dormant` no longer holds; returns the
        names still asleep.  The scheduler calls this first in its tick."""
        asleep = self._asleep
        for name in self._candidates(self.engine.now):
            if name in asleep and not self.dormant(name):
                del asleep[name]
        return asleep.keys()

    def _candidates(self, now: float) -> list[str]:
        """The functions that may have woken since the last :meth:`wake`:
        touched (an arrival, a replica or parked-pod change, a promotion)
        or due."""
        touched = self.gateway.touched
        names = list(touched)
        touched.clear()
        deadlines = self._deadlines
        while deadlines and deadlines[0][0] <= now:
            names.append(heapq.heappop(deadlines)[1])
        return names

    def wake_all(self) -> None:
        """Wake every function (something outside the sleep rule moved,
        e.g. an oracle forecaster's trace origin)."""
        self._asleep.clear()
        self._deadlines.clear()

    # -- the tick ---------------------------------------------------------------------
    def on_tick(self) -> None:
        """Observe, plan, and apply pre-warm/retire actions (scheduler tick).

        Sleeping functions (see :meth:`wake`) are neither ingested nor viewed;
        their pull-based forecasters replay the skipped bins once they wake."""
        now = self.engine.now
        names = [name for name in self._names if name not in self._asleep]
        self._ingest(now, names)
        if not self.predictive:
            return
        views = [self._view(now, name) for name in names]
        self._rates = {view.function: view.predicted_rps for view in views}
        hub = self.engine.hub
        if hub.enabled:
            # Forecast inputs first, chosen actions after: the audit trail
            # reads "what the policy saw → what it did" in event order.
            # Only viewed functions get a row (a sleeper's policy saw
            # nothing), and all-idle views (nothing running, parked,
            # pending, or predicted) are skipped so long-tail fleets don't
            # drown the stream in zero rows.
            for view in views:
                if not (
                    view.serving or view.warm or view.parked or view.pending or view.predicted_rps
                ):
                    continue
                inputs = {
                    "serving": view.serving,
                    "warm": view.warm,
                    "parked": view.parked,
                    "pending": view.pending,
                    "capacity_rps": view.capacity_rps,
                    "predicted_rps": view.predicted_rps,
                    "next_active": view.next_active,
                    "idle_deadline": view.idle_deadline,
                    "active_rate": view.active_rate,
                    "last_arrival": view.last_arrival,
                    "swap_in_s": view.swap_in_s,
                }
                hub.emit(
                    now,
                    "autoscaler",
                    "tick",
                    view.function,
                    **{k: v for k, v in inputs.items() if v is not None},
                )
        self._decision = decision = self.policy.plan(now, views)
        acted: set[str] = set()
        backed_off: set[str] = set()
        for action in decision.actions:
            if isinstance(action, PreWarmAction):
                if self._apply_prewarm(action):
                    acted.add(action.function)
                else:
                    backed_off.add(action.function)
                continue
            if isinstance(action, RetireAction):
                self._apply_retire(action)
            else:
                # Extension point: policies may emit actions that know how
                # to apply themselves (the memory tier's demote/promote/
                # evict go through here without this module knowing them).
                action.apply(self)
            acted.add(action.function)
        for view in views:
            if view.function not in acted:
                self._sleep_if_steady(now, view, view.function in backed_off)

    def _sleep_if_steady(self, now: float, view: FunctionView, backed_off: bool) -> None:
        """Put a function the tick left alone to sleep when its next view
        provably plans the same (see the module docstring).  A parked pod
        must have finished demoting, because its phase change wakes
        nothing; ``backed_off`` says the back-off dropped its pre-warms."""
        if view.pending:
            return
        name = view.function
        controller = self.controllers[name]
        if not all(pod.phase is PodPhase.HOST_RESIDENT for pod in controller.parked.values()):
            return
        gateway = self.gateway
        last = view.last_arrival
        if last is not None and math.floor(last / gateway.rps_bin_s) >= now // gateway.rps_bin_s:
            return  # the last arrival's bin is not ingested yet
        # The gap stays closed: at most the floor's serving pods, so a
        # surplus drains nothing, and no demand above their capacity.
        scheduler = self.scheduler
        floor = self.min_replicas_for(name, controller.function.min_replicas)
        if len(scheduler.running[name]) > floor:
            return
        demand = self.predicted_rps(name) * scheduler.settings.headroom
        if demand - scheduler.capacity[name] >= scheduler.scaler.epsilon_rps:
            return
        wake_at = self.policy.wake_at(now, view)
        forecaster = self.forecasters.get(name)
        if forecaster is not None:
            wake_at = min(wake_at, forecaster.quiet_until(now))
        if backed_off:
            wake_at = min(wake_at, self._nofit_until[name])
        wake_at -= WAKE_EARLY_S
        if wake_at <= now:
            return  # no promise past this tick
        self._asleep[name] = (
            gateway.submitted.get(name, 0),
            frozenset(controller.replicas),
            frozenset(controller.parked),
            wake_at,
        )
        if wake_at < math.inf:
            heapq.heappush(self._deadlines, (wake_at, name))

    def note_event(self, action: str, function: str, reason: str, **payload: object) -> None:
        """Record an applied decision (extension-action bookkeeping hook).

        ``payload`` is decision context for the telemetry audit trail only
        (e.g. the forecast gap a demotion was taken on); the
        :class:`AutoscaleEvent` timeline keeps its stable shape.
        """
        self.events.append(AutoscaleEvent(self.engine.now, function, action, reason))
        hub = self.engine.hub
        if hub.enabled:
            hub.emit(
                self.engine.now,
                "autoscaler",
                action,
                function,
                reason=reason,
                **{k: v for k, v in payload.items() if v is not None},
            )

    # -- observation & snapshot -----------------------------------------------------
    def _ingest(self, now: float, names: _t.Iterable[str]) -> None:
        current_bin = int(now // self.gateway.rps_bin_s)
        for name in names:
            if name in self.forecasters:
                self.forecasters[name].ingest(self.gateway.arrival_bins(name), current_bin)

    def _view(self, now: float, name: str) -> FunctionView:
        controller = self.controllers[name]
        scheduler = self.scheduler
        p_eff = scheduler.scaler.p_eff(name)
        spec = controller.function
        cold_start = (
            spec.model.shared_load_time_s if spec.use_model_sharing else spec.model.load_time_s
        )
        # One pass over the replicas: the warm ones, and the rest serve.
        replicas = controller.replicas
        warm_ids = sorted(r.pod.pod_id for r in replicas.values() if r.warm_pending)
        forecaster = self.forecasters.get(name)
        if forecaster is not None:
            predicted, next_active, idle_deadline, active_rate = forecaster.forecast(now)
        else:
            predicted = next_active = idle_deadline = active_rate = None
        parked_ids: tuple[str, ...] = ()
        swap_in_s = None
        lifecycle = scheduler.lifecycle
        if lifecycle is not None:
            parked_ids = tuple(lifecycle.parked(name))
            swap_in_s = lifecycle.swap_in_estimate_s(name)
        return FunctionView(
            function=name,
            serving=len(replicas) - len(warm_ids),
            warm=len(warm_ids),
            warm_pod_ids=tuple(warm_ids),
            capacity_rps=scheduler.capacity[name],
            pod_rps=p_eff.throughput,
            sm_partition=p_eff.sm_partition,
            quota=p_eff.quota,
            cold_start_s=cold_start,
            slo_ms=spec.slo_ms,
            pending=self.gateway.pending_count(name),
            predicted_rps=predicted,
            next_active=next_active,
            idle_deadline=idle_deadline,
            active_rate=active_rate,
            last_arrival=self.gateway.last_arrival.get(name),
            parked=len(parked_ids),
            parked_pod_ids=parked_ids,
            swap_in_s=swap_in_s,
        )

    # -- applying actions ------------------------------------------------------------
    def _apply_prewarm(self, action: PreWarmAction) -> bool:
        """Place one pre-warm at the first config that fits; False when the
        no-fit back-off dropped it unattempted."""
        now = self.engine.now
        if now < self._nofit_until.get(action.function, -1e9):
            return False  # recent no-fit: don't hammer the placement every tick
        # Opportunistic spares ride along on provisioned GPUs only; the
        # high-value pre-warms (keep-alive reserves, predicted clumps) are
        # allowed to power up an idle GPU — that cost is the point.
        replica = self.scheduler.place_pod(
            self.controllers[action.function],
            self._prewarm_configs(action),
            warm=True,
            used_nodes_only=action.reason == "spare-pool",
        )
        if replica is None:
            self._nofit_until[action.function] = now + NOFIT_BACKOFF_S
            self.note_event("prewarm-nofit", action.function, action.reason)
        else:
            self.prewarms += 1
            spec = replica.pod.spec
            self.note_event(
                "prewarm",
                action.function,
                action.reason,
                sm=spec.sm_partition,
                quota=spec.quota_limit,
            )
        return True

    def _prewarm_configs(self, action: PreWarmAction) -> list[tuple[float, float]]:
        """Candidate (sm, quota) configs for one pre-warm, best first.

        The requested (p_eff) config leads; when fragmentation leaves no
        rectangle of that shape, any other SLO-feasible profile point is
        better than no warm pod at all — a thinner partition slots into the
        strips left between resident pods.  Ordered by descending profiled
        throughput so the fallback degrades capacity as little as possible.
        """
        configs: list[tuple[float, float]] = [(action.sm_partition, action.quota)]
        try:
            candidates = self.scheduler.scaler.candidate_points(action.function)
        except KeyError:
            return configs
        for point in sorted(candidates, key=lambda p: -p.throughput):
            config = (point.sm_partition, point.quota)
            if config not in configs:
                configs.append(config)
        return configs

    def _apply_retire(self, action: RetireAction) -> None:
        controller = self.controllers[action.function]
        replica = controller.replicas.get(action.pod_id)
        if replica is None or not replica.warm_pending:
            return  # promoted or already gone since the snapshot
        release(self.scheduler.placement, controller, action.pod_id)
        self.retirements += 1
        self.note_event("retire", action.function, action.reason, pod=action.pod_id)


def _memtier_policy() -> PreWarmPolicy:
    # Imported lazily: repro.memtier.policy imports this package.
    from repro.memtier.policy import MemTierPolicy

    return MemTierPolicy()


#: Every autoscale policy name: (forecaster kind built per function, pre-warm
#: policy factory).  ``reactive`` builds neither (the degenerate controller);
#: ``oracle`` takes its forecasters from the caller, built from the trace.
POLICIES: dict[str, tuple[str | None, _t.Callable[[], PreWarmPolicy] | None]] = {
    "reactive": (None, None),
    "oracle": (None, PreWarmPolicy),
    "ewma": ("ewma", PreWarmPolicy),
    "histogram": ("histogram", PreWarmPolicy),
    "hybrid": ("hybrid", PreWarmPolicy),
    # Swap-aware keep-alive over the host↔GPU memory tier.
    "memtier": ("hybrid", _memtier_policy),
    "seasonal": ("seasonal", PreWarmPolicy),
    # WARM_IDLE-only keep-alive: never scales to zero (the memtier
    # benchmark's GPU-hungry baseline).
    "warmidle": ("hybrid", functools.partial(PreWarmPolicy, scale_to_zero=False)),
}


def build_autoscaler(
    policy: str,
    functions: _t.Iterable[str],
    bin_s: float = 1.0,
    period_s: float | None = None,
    forecasters: _t.Mapping[str, Forecaster] | None = None,
    prewarm: PreWarmPolicy | None = None,
) -> tuple[PreWarmPolicy | None, dict[str, Forecaster]]:
    """Resolve a :data:`POLICIES` name into ``(pre-warm policy, forecasters)``
    for the :class:`~repro.scheduler.scheduler.FaSTScheduler` to build its
    :class:`PredictiveAutoscaler` from.

    ``reactive`` resolves to ``(None, {})``: the degenerate pass-through
    controller.  ``oracle`` needs explicit per-function ``forecasters``
    (built from the replayed trace, e.g.
    :class:`~repro.autoscaler.forecast.OracleForecaster`).  Every other name
    builds one forecaster of its kind per function of ``functions``
    (``forecasters`` replace some), paired with its pre-warm policy.
    ``prewarm`` overrides that policy.
    """
    try:
        kind, policy_factory = POLICIES[policy]
    except KeyError:
        raise ValueError(f"unknown autoscale policy {policy!r}; known: {tuple(POLICIES)}") from None
    if policy_factory is None:  # reactive
        return None, {}
    if kind is None:  # oracle
        if not forecasters:
            raise ValueError("oracle policy needs per-function forecasters from the trace")
        missing = [f for f in forecasters.values() if not isinstance(f, Forecaster)]
        if missing:
            raise ValueError(f"non-forecaster entries: {missing}")
        built = {}
    else:
        built = {name: make_forecaster(kind, bin_s=bin_s, period_s=period_s) for name in functions}
    built.update(forecasters or {})
    return (prewarm if prewarm is not None else policy_factory()), built


__all__ = [
    "AutoscaleEvent",
    "POLICIES",
    "PredictiveAutoscaler",
    "build_autoscaler",
    "OracleForecaster",
]
