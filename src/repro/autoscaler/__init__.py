"""Predictive pre-warming autoscaler (control-plane layer over Algorithm 1).

The reactive Heuristic Scaling Algorithm reacts to load it has already
seen — by the time ``ΔRPS`` goes positive, every queued request eats the
full cold start.  This subsystem adds the predictive layer on top:

* :mod:`repro.autoscaler.forecast` — pluggable per-function arrival
  predictors (Holt-EWMA, seasonal bins, Azure-style hybrid histogram
  keep-alive, trace oracle);
* :mod:`repro.autoscaler.policy` — turns forecasts into
  ``PreWarmAction``/``RetireAction`` with SLO-aware lead times derived from
  each model's cold-start profile, per-function min-replica floors, and
  scale-to-zero past the keep-alive tail;
* :mod:`repro.autoscaler.controller` — the controller the
  FaST-Scheduler builds from a resolved policy and its forecasters and
  drives from its tick: pre-warmed pods are MRA-placed in ``WARM_IDLE``
  (memory held, zero time quota) and promoted by the gateway the instant
  demand appears.  :data:`POLICIES` is the one table of policy names
  (forecaster kind, pre-warm policy factory); :func:`build_autoscaler`
  resolves a name through it and ``AutoscalerSpec`` validates against it.
"""

from repro.autoscaler.controller import (
    POLICIES,
    AutoscaleEvent,
    PredictiveAutoscaler,
    build_autoscaler,
)
from repro.autoscaler.forecast import (
    FORECASTER_KINDS,
    CompositeForecaster,
    Forecaster,
    HoltEWMA,
    HybridHistogram,
    OracleForecaster,
    SeasonalBins,
    make_forecaster,
)
from repro.autoscaler.policy import (
    FunctionView,
    PolicyDecision,
    PreWarmAction,
    PreWarmPolicy,
    RetireAction,
)

__all__ = [
    "POLICIES",
    "AutoscaleEvent",
    "CompositeForecaster",
    "FORECASTER_KINDS",
    "Forecaster",
    "FunctionView",
    "HoltEWMA",
    "HybridHistogram",
    "OracleForecaster",
    "PolicyDecision",
    "PreWarmAction",
    "PreWarmPolicy",
    "PredictiveAutoscaler",
    "RetireAction",
    "SeasonalBins",
    "build_autoscaler",
    "make_forecaster",
]
