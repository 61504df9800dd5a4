"""Memory-tier autoscaling policy: the GPU-resident / host-resident / cold
decision triangle.

:class:`MemTierPolicy` extends the pre-warming policy with a third residency
level.  Per function and tick it weighs the forecast gap to the next
activity against the *current* swap-in estimate and the SLO headroom:

* **short gap** — keep pods ``WARM_IDLE`` (GPU-resident): promotion is free,
  GPU memory is the price;
* **long gap, swap-in hideable** — demote to ``HOST_RESIDENT``: zero GPU
  footprint, next activation costs one fabric transfer (cheap, and
  pre-payable by a policy-lead promotion ahead of the forecast);
* **no return expected** — evict the host copy too: the next activation is
  a full cold start, but host RAM is freed for functions that *will* return.

The actions are public API objects with an ``apply(autoscaler)`` hook, so
the predictive controller dispatches them without knowing the memory tier
exists — any policy can extend the action vocabulary the same way.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.autoscaler.policy import (
    FunctionView,
    PreWarmAction,
    PreWarmPolicy,
    RetireAction,
)

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.autoscaler.controller import PredictiveAutoscaler


@dataclasses.dataclass(frozen=True, slots=True)
class DemoteAction:
    """Park this WARM_IDLE pod's weights in host RAM (``demote``).

    ``forecast_gap_s``/``swap_in_s`` carry the decision context (predicted
    gap to next activity, swap-in estimate at decision time) into the
    telemetry audit trail — ``repro explain`` compares the forecast gap the
    demotion was taken on against the gap that actually happened.
    """

    function: str
    pod_id: str
    reason: str
    forecast_gap_s: float | None = None
    swap_in_s: float | None = None

    def apply(self, autoscaler: "PredictiveAutoscaler") -> None:
        lifecycle = autoscaler.scheduler.lifecycle
        if lifecycle is None:
            return
        if lifecycle.demote(self.function, self.pod_id) is not None:
            autoscaler.note_event(
                "demote",
                self.function,
                self.reason,
                pod=self.pod_id,
                forecast_gap_s=self.forecast_gap_s,
                swap_in_s=self.swap_in_s,
            )


@dataclasses.dataclass(frozen=True, slots=True)
class PromoteAction:
    """Swap a HOST_RESIDENT pod back in (``promote``); ``pod_id=None``
    promotes the oldest parked pod.  ``warm=True`` (policy-lead) parks it
    back in WARM_IDLE after the swap, ahead of the predicted activity."""

    function: str
    pod_id: str | None
    reason: str
    warm: bool = True
    swap_in_s: float | None = None

    def apply(self, autoscaler: "PredictiveAutoscaler") -> None:
        lifecycle = autoscaler.scheduler.lifecycle
        if lifecycle is None:
            return
        pod = lifecycle.promote(self.function, self.pod_id, warm=self.warm)
        action = "swapin" if pod is not None else "swapin-nofit"
        autoscaler.note_event(
            action,
            self.function,
            self.reason,
            pod=pod.pod_id if pod is not None else self.pod_id,
            swap_in_s=self.swap_in_s,
        )


@dataclasses.dataclass(frozen=True, slots=True)
class EvictAction:
    """Drop a HOST_RESIDENT pod's host copy entirely (``evict``)."""

    function: str
    pod_id: str
    reason: str
    idle_s: float | None = None

    def apply(self, autoscaler: "PredictiveAutoscaler") -> None:
        lifecycle = autoscaler.scheduler.lifecycle
        if lifecycle is None:
            return
        if lifecycle.evict(self.function, self.pod_id):
            autoscaler.note_event(
                "evict-host",
                self.function,
                self.reason,
                pod=self.pod_id,
                idle_s=self.idle_s,
            )


class MemTierPolicy(PreWarmPolicy):
    """Swap-aware keep-alive: demote instead of tearing down, promote with
    a swap-length lead instead of pre-warming from cold.

    Extra knobs over :class:`PreWarmPolicy`:

    * ``warm_gap_s`` — forecast gap beyond which even the warm idle reserve
      parks to host (below it, WARM_IDLE's instant promotion wins);
    * ``host_keepalive_s`` — idle seconds after which the host copy is
      evicted too (the never-coming-back tail);
    * ``swap_slo_fraction`` — a demotion only happens while the *current*
      swap-in estimate stays under this fraction of the function's SLO, so
      a demand promotion cannot blow the latency budget;
    * ``max_demote_per_tick`` — demotion rate limit (fabric and host-RAM
      churn control).
    """

    def __init__(
        self,
        *,
        warm_gap_s: float = 60.0,
        host_keepalive_s: float = 300.0,
        swap_slo_fraction: float = 0.75,
        max_demote_per_tick: int = 2,
        **kwargs,
    ):
        super().__init__(**kwargs)
        if warm_gap_s < 0:
            raise ValueError("warm_gap_s must be >= 0")
        if host_keepalive_s < 0:
            raise ValueError("host_keepalive_s must be >= 0")
        if not 0.0 < swap_slo_fraction <= 1.0:
            raise ValueError("swap_slo_fraction must be in (0, 1]")
        if max_demote_per_tick < 1:
            raise ValueError("max_demote_per_tick must be >= 1")
        self.warm_gap_s = warm_gap_s
        self.host_keepalive_s = host_keepalive_s
        self.swap_slo_fraction = swap_slo_fraction
        self.max_demote_per_tick = max_demote_per_tick

    # -- timing ------------------------------------------------------------------
    def lead_time(self, view: FunctionView) -> float:
        """Pre-warm lead: swap-length when a parked pod can be promoted,
        cold-start-length otherwise — the just-in-time half of the win."""
        if view.parked > 0 and view.swap_in_s is not None:
            return view.swap_in_s * self.lead_safety + self.lead_margin_s
        return super().lead_time(view)

    def _swap_hideable(self, view: FunctionView) -> bool:
        """Would a worst-case demand swap-in stay inside the SLO budget?"""
        if view.swap_in_s is None:
            return False
        return view.swap_in_s * 1000.0 <= self.swap_slo_fraction * view.slo_ms

    def _gap_is_long(self, now: float, view: FunctionView) -> bool:
        """No activity predicted within the WARM_IDLE-worthy window."""
        if view.next_active is None:
            return True
        return view.next_active - now > self.warm_gap_s

    def _host_expired(self, now: float, view: FunctionView) -> bool:
        return view.last_arrival is not None and now - view.last_arrival > self.host_keepalive_s

    def wake_at(self, now: float, view: FunctionView) -> float:
        """Adds the host keep-alive deadline (the evict rule) for a function
        with host copies.  A plan that reads the fabric's current contention
        gets no promise: a swap-length lead ahead of predicted activity, or
        an idle warm reserve whose demotion waits on a hideable swap-in."""
        if view.swap_in_s is not None:
            _, idle = self._idle_state(now, view)
            if (view.parked and view.next_active is not None) or (
                idle and view.warm_pod_ids and self._gap_is_long(now, view)
            ):
                return now
        deadline = super().wake_at(now, view)
        if view.parked > 0 and view.last_arrival is not None:
            if not self._host_expired(now, view):
                deadline = min(deadline, view.last_arrival + self.host_keepalive_s)
        return deadline

    # -- the per-tick plan ----------------------------------------------------------
    def _plan_function(self, now, view, floors, idle_set):
        base = super()._plan_function(now, view, floors, idle_set)
        if view.swap_in_s is None:
            return base  # memory tier disabled for this run
        name = view.function
        hideable = self._swap_hideable(view)
        out: list = []
        demotes = 0
        promote_budget = view.parked
        demoted_ids: set[str] = set()
        forecast_gap = view.next_active - now if view.next_active is not None else None

        for action in base:
            if (
                isinstance(action, RetireAction) and hideable and demotes < self.max_demote_per_tick
            ):
                # Park instead of tearing down: the host copy keeps the next
                # activation at swap-in cost instead of a full cold start.
                out.append(
                    DemoteAction(
                        name,
                        action.pod_id,
                        reason="park-host",
                        forecast_gap_s=forecast_gap,
                        swap_in_s=view.swap_in_s,
                    )
                )
                demoted_ids.add(action.pod_id)
                demotes += 1
                continue
            if isinstance(action, PreWarmAction):
                if action.reason == "idle-reserve" and view.parked > 0:
                    # The host copy *is* the idle reserve — don't hold a GPU
                    # rectangle just to park the same weights warm again.
                    continue
                if promote_budget > 0:
                    # A parked pod beats a fresh cold pre-warm: same warm
                    # outcome for a fabric transfer instead of a full load.
                    out.append(
                        PromoteAction(
                            name,
                            None,
                            reason=action.reason,
                            warm=True,
                            swap_in_s=view.swap_in_s,
                        )
                    )
                    promote_budget -= 1
                    continue
            out.append(action)

        activity_soon, idle = self._idle_state(now, view)
        if idle and hideable and self._gap_is_long(now, view):
            # Long gap: the warm idle reserve itself parks to host — this is
            # the GPU-seconds win over WARM_IDLE-only keep-alive.
            for pod_id in view.warm_pod_ids:
                if demotes >= self.max_demote_per_tick:
                    break
                if pod_id in demoted_ids:
                    continue
                if any(isinstance(a, RetireAction) and a.pod_id == pod_id for a in out):
                    continue
                out.append(
                    DemoteAction(
                        name,
                        pod_id,
                        reason="long-gap",
                        forecast_gap_s=forecast_gap,
                        swap_in_s=view.swap_in_s,
                    )
                )
                demoted_ids.add(pod_id)
                demotes += 1

        if idle and (view.parked > 0 or demoted_ids) and name not in idle_set:
            # Host copies satisfy the readiness-reserve requirement, so the
            # reactive floor can drop and serving pods drain — the base rule
            # only releases it for *warm* reserves.
            floors[name] = 0
            idle_set.add(name)

        if view.parked > 0 and self._host_expired(now, view) and not activity_soon:
            # The never-coming-back tail: free the host RAM too.
            idle_s = now - view.last_arrival if view.last_arrival is not None else None
            for pod_id in view.parked_pod_ids:
                out.append(
                    EvictAction(name, pod_id, reason="host-keepalive-expired", idle_s=idle_s)
                )

        return out
