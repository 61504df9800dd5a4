"""The serverless (OpenFaaS-like) platform layer.

* :mod:`repro.faas.requests` — request records and the request log with
  latency/throughput analytics;
* :mod:`repro.faas.function` — function specs (model + SLO) and the registry;
* :mod:`repro.faas.replica` — the function-instance runtime: cold start
  (model load / shared GET), FIFO queue, serve loop through the hook library;
* :mod:`repro.faas.gateway` — request intake, least-loaded routing across
  ready replicas, RPS observation/prediction for the auto-scaler;
* :mod:`repro.faas.workload` — arrival processes (stepped rate traces, Poisson or
  evenly spaced; one step is a fixed rate) mirroring the paper's k6 load shapes;
* :mod:`repro.faas.traces` — production-shaped invocation-count traces
  (Azure-Functions style: diurnal / bursty / cold-tail), synthesized
  deterministically, JSON-serializable, replayable as workloads;
* :mod:`repro.faas.loadgen` — open-loop and closed-loop load generation;
* :mod:`repro.faas.slo` — SLO violation analytics (paper Fig. 12).
"""

from repro.faas.function import FunctionRegistry, FunctionSpec
from repro.faas.gateway import Gateway
from repro.faas.loadgen import ClosedLoopClient, OpenLoopGenerator
from repro.faas.replica import FunctionReplica
from repro.faas.requests import Request, RequestLog
from repro.faas.slo import latency_percentile, violation_ratio, violation_series
from repro.faas.traces import (
    TRACE_SHAPES,
    FunctionTrace,
    TraceSet,
    TraceWorkload,
    load_trace_set,
    synthesize_trace,
    synthesize_trace_set,
)
from repro.faas.workload import StepTrace, Workload

__all__ = [
    "ClosedLoopClient",
    "FunctionRegistry",
    "FunctionReplica",
    "FunctionSpec",
    "FunctionTrace",
    "Gateway",
    "OpenLoopGenerator",
    "Request",
    "RequestLog",
    "StepTrace",
    "TRACE_SHAPES",
    "TraceSet",
    "TraceWorkload",
    "Workload",
    "latency_percentile",
    "load_trace_set",
    "synthesize_trace",
    "synthesize_trace_set",
    "violation_ratio",
    "violation_series",
]
