"""Pre-warm / retire decision making over per-function forecasts.

The policy turns the forecasters' outputs into explicit actions:

* :class:`PreWarmAction` — place one ``WARM_IDLE`` pod via the MRA path
  (memory held, zero quota) so a predicted arrival or flash crowd promotes
  it instantly instead of paying a cold start;
* :class:`RetireAction` — remove a warm pod whose keep-alive window expired
  (scale-to-zero support).

It also computes per-function **min-replica floors** for the reactive inner
loop: a function past its keep-alive tail may drain to zero replicas; an
active function keeps the configured floor.

Pre-warm timing is SLO-aware: the lead time is derived from the function's
cold-start profile (shared-store vs full load — ``ModelProfile``'s
``shared_load_time_s`` / ``load_time_s``) scaled by a safety factor, so the
pod finishes loading *before* the predicted arrival.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t


@dataclasses.dataclass(frozen=True, slots=True)
class PreWarmAction:
    """Deploy one pre-warmed (WARM_IDLE) pod with this configuration."""

    function: str
    sm_partition: float
    quota: float
    reason: str


@dataclasses.dataclass(frozen=True, slots=True)
class RetireAction:
    """Remove this warm pod (keep-alive expired / prediction withdrawn)."""

    function: str
    pod_id: str
    reason: str


PreWarmPlanAction = PreWarmAction | RetireAction


@dataclasses.dataclass(frozen=True, slots=True)
class FunctionView:
    """Per-function snapshot the controller assembles each tick."""

    function: str
    serving: int
    warm: int
    warm_pod_ids: tuple[str, ...]
    capacity_rps: float
    pod_rps: float
    sm_partition: float
    quota: float
    cold_start_s: float
    slo_ms: float
    pending: int
    predicted_rps: float | None
    next_active: float | None
    idle_deadline: float | None
    active_rate: float | None
    last_arrival: float | None
    #: memory tier (defaults = tier disabled): HOST_RESIDENT pod count/ids
    #: and the current swap-in estimate.
    parked: int = 0
    parked_pod_ids: tuple[str, ...] = ()
    swap_in_s: float | None = None


@dataclasses.dataclass(slots=True)
class PolicyDecision:
    """One tick's plan: actions, reactive-loop floors, and idle functions.

    ``idle`` lists functions past their keep-alive window: their forecast
    residue is zeroed (an EWMA decays exponentially but never reaches the
    scaler's epsilon, which would block removing the last pod forever) and
    their floor drops so the reactive loop can drain to zero.
    """

    actions: list[PreWarmPlanAction]
    min_replicas: dict[str, int]
    idle: frozenset[str] = frozenset()


class PreWarmPolicy:
    """SLO-aware pre-warming with keep-alive windows and scale-to-zero.

    Rules, per function and tick:

    1. **keep-alive expiry** — past the forecaster's idle deadline (or, with
       no deadline opinion, past ``spare_keepalive_s`` since the last
       arrival) with nothing pending: retire warm pods and release the
       min-replica floor to zero so the reactive loop drains the rest;
    2. **predictive pre-warm** — when the next predicted activity falls
       within the function's lead time, pre-warm toward the expected active
       rate (clumped cold-tail traffic needs a *fleet*, not one pod);
    3. **spare maintenance** — an active function keeps ``spares`` warm
       pods beyond its serving set, so a flash crowd promotes instantly
       while the reactive loop catches up.
    """

    def __init__(
        self,
        spares: int = 1,
        headroom: float = 1.2,
        lead_safety: float = 1.5,
        lead_margin_s: float = 1.0,
        spare_keepalive_s: float = 15.0,
        max_prewarm_per_tick: int = 2,
        max_pods_per_function: int = 8,
        scale_to_zero: bool = True,
        idle_reserve: int = 1,
        max_idle_reserve: int = 4,
    ):
        if spares < 0:
            raise ValueError("spares must be >= 0")
        if headroom < 1.0:
            raise ValueError("headroom must be >= 1")
        if lead_safety < 1.0:
            raise ValueError("lead_safety must be >= 1")
        if max_prewarm_per_tick < 1:
            raise ValueError("max_prewarm_per_tick must be >= 1")
        if max_pods_per_function < 1:
            raise ValueError("max_pods_per_function must be >= 1")
        if idle_reserve < 0:
            raise ValueError("idle_reserve must be >= 0")
        if max_idle_reserve < idle_reserve:
            raise ValueError("max_idle_reserve must be >= idle_reserve")
        self.spares = spares
        self.headroom = headroom
        self.lead_safety = lead_safety
        self.lead_margin_s = lead_margin_s
        self.spare_keepalive_s = spare_keepalive_s
        self.max_prewarm_per_tick = max_prewarm_per_tick
        self.max_pods_per_function = max_pods_per_function
        self.scale_to_zero = scale_to_zero
        self.idle_reserve = idle_reserve
        self.max_idle_reserve = max_idle_reserve

    # -- timing -----------------------------------------------------------------
    def lead_time(self, view: FunctionView) -> float:
        """Seconds of pre-warm lead needed to hide this function's cold start."""
        return view.cold_start_s * self.lead_safety + self.lead_margin_s

    def _expiry(self, view: FunctionView) -> float | None:
        """When this function's keep-alive window closes (None = never seen)."""
        if view.idle_deadline is not None:
            return view.idle_deadline
        if view.last_arrival is not None:
            return view.last_arrival + self.spare_keepalive_s
        return None

    def _idle_state(self, now: float, view: FunctionView) -> tuple[bool, bool]:
        """(activity soon, idle): whether the next predicted activity falls
        within the lead time, and whether the keep-alive window is over with
        nothing pending and no activity soon."""
        expiry = self._expiry(view)
        # ">=": forecasters signal "expired right now" by returning the
        # current time (e.g. idle beyond every recorded gap).
        expired = expiry is not None and now >= expiry
        activity_soon = (
            view.next_active is not None and view.next_active - now <= self.lead_time(view)
        )
        return activity_soon, expired and not activity_soon and view.pending == 0

    def wake_at(self, now: float, view: FunctionView) -> float:
        """The earliest instant the plan for ``view`` may change while its
        inputs hold (no arrival, no replica or parked-pod change, the
        forecast answers unchanged) and only the clock moves; at or before
        ``now`` for no promise.

        Those inputs fixed, the plan changes only when one of its time tests
        flips: the keep-alive expiry passes, the next predicted activity
        comes within the lead time, or (while not idle) the spare window
        closes.  A test that has already flipped stays flipped, so it is no
        deadline.  A subclass with more time-driven rules extends this.
        """
        deadline = math.inf
        expiry = self._expiry(view)
        if expiry is not None and now < expiry:
            deadline = expiry
        if view.next_active is not None:
            lead = self.lead_time(view)
            if view.next_active - now > lead:
                deadline = min(deadline, view.next_active - lead)
        _, idle = self._idle_state(now, view)
        last = view.last_arrival
        if not idle and last is not None and now - last <= self.spare_keepalive_s:
            deadline = min(deadline, last + self.spare_keepalive_s)
        return deadline

    # -- the per-tick plan --------------------------------------------------------
    def plan(self, now: float, views: _t.Sequence[FunctionView]) -> PolicyDecision:
        actions: list[PreWarmPlanAction] = []
        floors: dict[str, int] = {}
        idle: set[str] = set()
        for view in views:
            actions.extend(self._plan_function(now, view, floors, idle))
        return PolicyDecision(actions=actions, min_replicas=floors, idle=frozenset(idle))

    def _plan_function(
        self, now: float, view: FunctionView, floors: dict[str, int], idle_set: set[str]
    ) -> list[PreWarmPlanAction]:
        name = view.function
        activity_soon, idle = self._idle_state(now, view)
        if self.scale_to_zero and idle:
            # Keep-alive over: scale to zero *serving* pods (zero quota
            # draw), but park a warm **readiness reserve** as re-entry
            # insurance — under spatial packing, a torn-down big-rectangle
            # function may never find space again once other functions'
            # fleets move in (the Torpor/FaaSwap point: keep the model
            # resident, not the quota).  The reserve is sized for the
            # function's observed active-period rate, so a cold-tail clump
            # promotes a whole fleet instantly; its pods take over the
            # slots the draining clump pods free.
            reserve = self._idle_reserve_for(view)
            actions: list[PreWarmPlanAction] = [
                RetireAction(name, pod_id, reason="keepalive-expired")
                for pod_id in view.warm_pod_ids[reserve:]
            ]
            if view.warm < reserve and view.serving + view.warm > 0:
                actions.extend(
                    PreWarmAction(name, view.sm_partition, view.quota, reason="idle-reserve")
                    for _ in range(min(reserve - view.warm, self.max_prewarm_per_tick))
                )
            if view.warm >= min(reserve, 1) or view.serving + view.warm == 0:
                # At least one warm pod parked (or nothing left at all):
                # release the floor so the reactive loop drains serving pods.
                floors[name] = 0
                idle_set.add(name)
            return actions

        # Target capacity ahead of predicted activity: enough pods for the
        # expected active-period rate (with headroom), pre-warmed in time.
        target_pods = view.serving + view.warm
        reason = ""
        if activity_soon:
            rate = view.active_rate or view.predicted_rps or 0.0
            wanted = self._pods_for(rate, view.pod_rps)
            if wanted > target_pods:
                target_pods = wanted
                reason = "predicted-activity"
        if not reason and self._recently_active(now, view):
            # Clump readiness: a function inside its keep-alive window keeps
            # a warm fleet sized for its *active-period* rate (cold-tail
            # clumps arrive at mean_rps / active_fraction, not mean_rps), so
            # backpressure promotion absorbs the onset instantly.  Plain
            # spares cover functions with no active-rate evidence yet.
            wanted = view.serving + self.spares
            if view.active_rate is not None:
                wanted = max(wanted, self._pods_for(view.active_rate, view.pod_rps))
            if wanted > target_pods:
                target_pods = wanted
                reason = "spare-pool"

        target_pods = min(target_pods, self.max_pods_per_function)
        deficit = target_pods - (view.serving + view.warm)
        if deficit <= 0:
            return []
        return [
            PreWarmAction(name, view.sm_partition, view.quota, reason=reason)
            for _ in range(min(deficit, self.max_prewarm_per_tick))
        ]

    def _pods_for(self, rate: float, pod_rps: float) -> int:
        if rate <= 0 or pod_rps <= 0:
            return 1
        return max(1, int(math.ceil(rate * self.headroom / pod_rps)))

    def _idle_reserve_for(self, view: FunctionView) -> int:
        """Warm pods to keep parked while idle: enough for the next clump."""
        reserve = self.idle_reserve
        if view.active_rate is not None:
            reserve = max(
                reserve,
                min(self._pods_for(view.active_rate, view.pod_rps), self.max_idle_reserve),
            )
        return reserve

    def _recently_active(self, now: float, view: FunctionView) -> bool:
        """Traffic flowed within the spare window (NOT the whole keep-alive:
        spares parked across long inter-clump gaps would permanently hold
        cluster space other functions need — pre-warming for the next clump
        is the just-in-time ``predicted-activity`` rule's job)."""
        if view.pending > 0:
            return True
        return view.last_arrival is not None and now - view.last_arrival <= self.spare_keepalive_s
