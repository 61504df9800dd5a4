"""Per-layer span tracer, installed from outside the program.

The tracer wraps the public surface of each ``repro`` layer at class level
inside the benchmark process and keeps every measurement in memory:

* a wrapped call is a span; its **self time** is its duration minus the
  time covered by the spans it caused (children), so nested calls across
  layers are never double counted;
* every callback handed to ``Engine.schedule_at`` is wrapped and, when the
  engine dispatches it, attributed to the layer of the module that owns it.
  A process-resume callback goes to the layer of the innermost generator
  the process is suspended in (``yield from`` chains are followed), so a
  replica serving loop suspended inside the token hook counts as
  ``manager``, not ``faas``;
* layer counters (placements, restructures, views, ...) are taken at the
  same boundaries, so ratios are measured where the work happens.

Nothing in ``src/`` is modified: :meth:`Tracer.install` replaces methods of
the imported classes for the rest of the (benchmark-owned) process.
"""

from __future__ import annotations

import collections
import importlib
import time

#: Layers reported as ``<layer>.self_s``; time in any other module (models,
#: obs, platform glue, the benchmark itself) is reported as ``other``.
LAYERS = (
    "sim", "gpu", "manager", "faas", "scheduler", "autoscaler", "profiler",
    "memtier", "migrate", "k8s", "serve",
)

#: (module, class, methods, layer): the boundaries a span is recorded at.
#: Chosen so every cross-layer call is a span; tiny value types (``Rect``,
#: ``ProfilePoint``) are left out because wrapping them would dominate the
#: very cost being measured.
SURFACE = (
    ("repro.sim.engine", "Engine", ("run", "step", "peek"), "sim"),
    ("repro.sim.engine", "Handle", ("cancel",), "sim"),
    ("repro.sim.resources", "Store", ("put", "try_put", "get", "get_nowait", "drain"), "sim"),
    ("repro.sim.resources", "Gate", ("wait", "open", "close"), "sim"),
    ("repro.gpu.device", "GPUDevice", ("sync_metrics",), "gpu"),
    ("repro.gpu.driver", "CudaDriver",
     ("create_context", "destroy_context", "launch_burst", "synchronize",
      "mem_alloc", "mem_free", "ipc_get_mem_handle", "ipc_open_mem_handle",
      "ipc_close_mem_handle"), "gpu"),
    ("repro.gpu.memory", "MemoryLedger",
     ("allocate", "can_allocate", "free", "release_owner", "owner_usage_mb"), "gpu"),
    ("repro.manager.backend", "FaSTBackend",
     ("register", "deregister", "update_quota", "request_token", "charge",
      "release_token"), "manager"),
    ("repro.manager.hook", "CudaHookLibrary", ("release",), "manager"),
    ("repro.faas.gateway", "Gateway",
     ("replica_ready", "replica_gone", "replicas", "replica_warm", "warm_replicas",
      "claim_warm", "claim_specific", "reroute",
      "observed_rps", "predicted_rps", "arrival_bins", "pending_count",
      "pending_total"), "faas"),
    ("repro.faas.replica", "FunctionReplica",
     ("enqueue", "promote", "consume_promotion", "consume_swap", "kill"), "faas"),
    ("repro.scheduler.scheduler", "FaSTScheduler", ("place_pod", "start", "stop"), "scheduler"),
    ("repro.scheduler.mra", "MaximalRectanglesScheduler",
     ("bind", "bind_at", "unbind", "gpus_in_use", "utilized_area_by_node",
      "fragmentation_by_node", "cluster_fragmentation", "plan_migrations"), "scheduler"),
    ("repro.scheduler.mra", "GPURectangleList",
     ("best_fit", "can_fit", "place", "remove", "clone", "fragmentation",
      "largest_free_area"), "scheduler"),
    ("repro.scheduler.autoscale", "HeuristicScaler", ("candidate_points", "plan"), "scheduler"),
    ("repro.autoscaler.controller", "PredictiveAutoscaler",
     ("on_tick", "predicted_rps", "min_replicas_for", "note_event"), "autoscaler"),
    ("repro.autoscaler.policy", "PreWarmPolicy", ("plan",), "autoscaler"),

    ("repro.memtier.lifecycle", "ReplicaLifecycle",
     ("evict_all", "swap_in_estimate_s", "parked", "parked_count", "weights_mb"), "memtier"),
    ("repro.memtier.fabric", "TransferFabric", ("estimate_s", "rates_mb_per_s"), "memtier"),
    ("repro.memtier.policy", "MemTierPolicy", ("_plan_function",), "memtier"),
    ("repro.migrate.defrag", "Defragmenter", ("fragmentation_snapshot",), "migrate"),
    ("repro.migrate.controller", "MigrationController", ("migrate", "migratable"), "migrate"),
    ("repro.k8s.fastpod", "FaSTPodController",
     ("scale_down_all", "park", "restore", "evict_parked", "running_configs",
      "serving_configs", "warm_replicas"), "k8s"),
    ("repro.k8s.node", "GPUNode",
     ("admit", "evict", "park", "readmit", "fits_memory", "can_park",
      "pod_memory_requirement_mb"), "k8s"),
    ("repro.k8s.cluster", "Cluster",
     ("node", "speed_factors", "register_pod", "forget_pod", "node_metrics",
      "reset_metrics"), "k8s"),
    ("repro.serve.driver", "EngineDriver", ("call",), "serve"),
)

#: (module, class, method, layer, counter, count_if): boundaries that also
#: feed a counter.  ``count_if`` filters on the call's result.
COUNTED = (
    ("repro.gpu.device", "GPUDevice", "submit", "gpu", "gpu.bursts", None),
    ("repro.manager.backend", "FaSTBackend", "request_token", "manager",
     "manager.token_requests", None),
    ("repro.faas.gateway", "Gateway", "submit", "faas", "faas.submits", None),
    ("repro.faas.gateway", "Gateway", "complete", "faas", "faas.completions", None),
    ("repro.scheduler.mra", "MaximalRectanglesScheduler", "select_node", "scheduler",
     "scheduler.placements", None),
    ("repro.scheduler.mra", "MaximalRectanglesScheduler", "select_node", "scheduler",
     "scheduler.placement_misses", lambda result: result is None),
    ("repro.scheduler.mra", "GPURectangleList", "restructure", "scheduler",
     "scheduler.restructures", None),
    ("repro.scheduler.autoscale", "HeuristicScaler", "p_eff", "scheduler",
     "scheduler.p_eff_calls", None),
    ("repro.profiler.database", "ProfileDatabase", "points", "profiler", "profiler.lookups", None),
    ("repro.profiler.database", "ProfileDatabase", "get", "profiler", "profiler.lookups", None),
    ("repro.profiler.database", "ProfileDatabase", "best_rpr", "profiler", "profiler.lookups", None),
    ("repro.profiler.database", "ProfileDatabase", "throughput_of", "profiler", "profiler.lookups", None),
    ("repro.profiler.database", "ProfileDatabase", "functions", "profiler", "profiler.lookups", None),
    ("repro.memtier.lifecycle", "ReplicaLifecycle", "promote", "memtier",
     "memtier.swap_ins", lambda result: result is not None),
    ("repro.memtier.lifecycle", "ReplicaLifecycle", "demote", "memtier",
     "memtier.demotions", lambda result: result is not None),
    ("repro.memtier.lifecycle", "ReplicaLifecycle", "evict", "memtier",
     "memtier.evictions", bool),
    ("repro.memtier.fabric", "TransferFabric", "transfer", "memtier", "memtier.transfers", None),
    ("repro.migrate.defrag", "Defragmenter", "on_tick", "migrate", "migrate.defrag_ticks", None),
    ("repro.k8s.fastpod", "FaSTPodController", "scale_up", "k8s", "k8s.scale_ups", None),
    ("repro.k8s.fastpod", "FaSTPodController", "scale_down", "k8s", "k8s.scale_downs", None),
    ("repro.serve.driver", "EngineDriver", "advance", "serve", "serve.driver_advances", None),
)


def layer_of_module(name: str | None) -> str:
    """``repro.<layer>.<module>`` → ``<layer>``; anything else → ``other``."""
    if name and name.startswith("repro."):
        layer = name.split(".", 2)[1]
        if layer in LAYERS:
            return layer
    return "other"


def _active(view) -> bool:
    """A FunctionView with anything serving, warm, parked, pending or predicted."""
    return bool(view.serving or view.warm or view.parked or view.pending or view.predicted_rps)


class Tracer:
    """In-memory span stack, per-layer self time, counters and tick records."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = collections.defaultdict(float)
        self.counts: collections.Counter = collections.Counter()
        #: Inclusive seconds of ``Engine.run`` calls (the engine advancing).
        self.engine_s = 0.0
        #: One ``(tick_ms, views, active_views)`` row per scheduler tick.
        self.ticks: list[tuple[float, int, int]] = []
        # Child-time accumulators; the bottom entry is the root, which
        # collects the time of every top-level span.
        self._stack: list[float] = [0.0]
        self._module_layers: dict[str, str] = {}
        self._t_reset = time.perf_counter()

    # -- results ------------------------------------------------------------
    def reset(self) -> None:
        """Drop everything measured so far (e.g. the set-up phase)."""
        self.self_s.clear()
        self.counts.clear()
        self.engine_s = 0.0
        self.ticks.clear()
        self._stack[:] = [0.0] * len(self._stack)
        self._t_reset = time.perf_counter()

    def elapsed_s(self) -> float:
        return time.perf_counter() - self._t_reset

    def layer_self_s(self, wall_s: float) -> dict[str, float]:
        """Self seconds per reported layer; ``other`` takes the rest of ``wall_s``."""
        shares = {layer: self.self_s.get(layer, 0.0) for layer in LAYERS}
        shares["other"] = max(0.0, wall_s - sum(shares.values()))
        return shares

    # -- wrapping -----------------------------------------------------------
    def span(self, fn, layer: str, counters=()):
        """``fn`` wrapped as a span of ``layer``.

        ``counters``: ``(name, count_if)`` pairs; each call bumps ``name``
        when ``count_if`` is None or true of the call's result.
        """
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self_s[layer] += dt - stack.pop()
                stack[-1] += dt
            for counter, count_if in counters:
                if count_if is None or count_if(result):
                    counts[counter] += 1
            return result

        return traced

    def counted(self, fn, counter: str):
        """Call counter only, for coroutine functions (a span around one
        would time only the creation of the coroutine)."""
        counts = self.counts

        def traced(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return traced

    def _callback_layer(self, callback) -> str:
        owner = getattr(callback, "__self__", None)
        generator = getattr(owner, "_generator", None)
        if generator is not None:
            # Process resume/interrupt: follow `yield from` to the frame
            # that actually runs when the process wakes up.
            while getattr(getattr(generator, "gi_yieldfrom", None), "gi_frame", None):
                generator = generator.gi_yieldfrom
            frame = generator.gi_frame
            module = frame.f_globals.get("__name__") if frame is not None else None
        else:
            module = getattr(callback, "__module__", None)
            if module is None and hasattr(callback, "func"):  # functools.partial
                module = getattr(callback.func, "__module__", None)
        layer = self._module_layers.get(module)
        if layer is None:
            layer = self._module_layers[module] = layer_of_module(module)
        return layer

    def _wrap_callback(self, callback):
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        perf = time.perf_counter
        layer_of = self._callback_layer

        def traced_callback(*args):
            counts["sim.callbacks"] += 1
            layer = layer_of(callback)
            stack.append(0.0)
            t0 = perf()
            try:
                return callback(*args)
            finally:
                dt = perf() - t0
                self_s[layer] += dt - stack.pop()
                stack[-1] += dt

        return traced_callback

    def install(self) -> "Tracer":
        """Patch every boundary in :data:`SURFACE` / :data:`COUNTED`."""
        def cls(module: str, name: str):
            return getattr(importlib.import_module(module), name)

        for module, class_name, methods, layer in SURFACE:
            owner = cls(module, class_name)
            for method in methods:
                setattr(owner, method, self.span(owner.__dict__[method], layer))

        counted: dict[tuple[object, str, str], list] = collections.defaultdict(list)
        for module, class_name, method, layer, counter, count_if in COUNTED:
            counted[(cls(module, class_name), method, layer)].append((counter, count_if))
        for (owner, method, layer), counters in counted.items():
            setattr(owner, method, self.span(owner.__dict__[method], layer, counters))

        self._install_engine()
        self._install_control_tick()
        import repro.serve.server as server

        invoke = server.LiveServer.__dict__["_invoke"]
        server.LiveServer._invoke = self.counted(invoke, "serve.requests")
        return self

    def _install_engine(self) -> None:
        from repro.sim.engine import Engine, Handle

        wrap_callback = self._wrap_callback
        counts = self.counts
        schedule_at = self.span(
            Engine.__dict__["schedule_at"], "sim", [("sim.schedules", None)]
        )

        def traced_schedule_at(engine, time_, callback, *args):
            return schedule_at(engine, time_, wrap_callback(callback), *args)

        Engine.schedule_at = traced_schedule_at
        cancel = Handle.__dict__["cancel"]

        def traced_cancel(handle):
            counts["sim.cancels"] += 1
            return cancel(handle)

        Handle.cancel = traced_cancel

        # Inclusive engine time on top of the sim span already on `run`.
        run = Engine.__dict__["run"]
        perf = time.perf_counter
        tracer = self

        def timed_run(engine, until=None):
            t0 = perf()
            try:
                return run(engine, until)
            finally:
                tracer.engine_s += perf() - t0

        Engine.run = timed_run

    def _install_control_tick(self) -> None:
        from repro.autoscaler.controller import PredictiveAutoscaler
        from repro.scheduler.scheduler import FaSTScheduler

        counts = self.counts
        view = self.span(
            PredictiveAutoscaler.__dict__["_view"], "autoscaler", [("autoscaler.views", None)]
        )

        def traced_view(autoscaler, now, name):
            result = view(autoscaler, now, name)
            if _active(result):
                counts["autoscaler.active_views"] += 1
            return result

        PredictiveAutoscaler._view = traced_view

        tick = self.span(
            FaSTScheduler.__dict__["_tick"], "scheduler", [("scheduler.ticks", None)]
        )
        ticks = self.ticks
        perf = time.perf_counter

        def traced_tick(scheduler):
            views, active = counts["autoscaler.views"], counts["autoscaler.active_views"]
            t0 = perf()
            tick(scheduler)
            ticks.append((
                1000.0 * (perf() - t0),
                counts["autoscaler.views"] - views,
                counts["autoscaler.active_views"] - active,
            ))

        FaSTScheduler._tick = traced_tick
