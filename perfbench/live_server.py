"""Serve the ``live_static`` workload through ``LiveServer`` (spawned by ``run.py``).

    python3 perfbench/live_server.py [--seed N] [--trace]

Prints ``PORT <n>`` once the server is bound and ready, serves until a
client ``POST /drain``, then prints one JSON line: peak RSS, the set-up
split, and (``--trace``) the per-layer trace of the serving phase.  With
``--trace`` the event loop's selector is timed too, so time spent idle
waiting for the network is not charged to any layer.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import selectors
import sys
import time

import workloads
from tracer import LAYERS, Tracer


async def serve(args: argparse.Namespace, tracer) -> dict:
    import repro.serve.server as server_module
    from repro.serve.server import LiveServer, ServeConfig

    marks: dict[str, float] = {}
    build = server_module.build_platform
    prepare = server_module.prepare_control_plane

    def timed_build(spec):
        t0 = time.perf_counter()
        try:
            return build(spec)
        finally:
            marks["build_s"] = time.perf_counter() - t0

    def timed_prepare(spec, platform):
        t0 = time.perf_counter()
        try:
            return prepare(spec, platform)
        finally:
            marks["deploy_s"] = time.perf_counter() - t0

    server_module.build_platform = timed_build
    server_module.prepare_control_plane = timed_prepare

    scenario = workloads.load("live_static", args.seed)
    server = LiveServer(scenario, ServeConfig(port=0))
    await server.start()
    if tracer is not None:
        tracer.reset()
    print(f"PORT {server.port}", flush=True)
    try:
        await server.serve_until_drained()
    finally:
        await server.aclose()
    result: dict[str, object] = dict(marks)
    if tracer is not None:
        serving_s = tracer.elapsed_s()
        idle_s = tracer.self_s.get("idle", 0.0)
        self_s = {layer: tracer.self_s.get(layer, 0.0) for layer in (*LAYERS, "other")}
        # The front itself (asyncio loop, HTTP framing, handlers) is what is
        # left of the serving phase once idle waits and the self time of
        # every traced span are taken out.
        self_s["serve"] += serving_s - idle_s - sum(self_s.values())
        result["trace"] = {
            "self_s": self_s,
            "counts": dict(tracer.counts),
            "engine_s": tracer.engine_s,
        }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(workloads.SRC))

    tracer = None
    selector: selectors.BaseSelector = selectors.DefaultSelector()
    if args.trace:
        tracer = Tracer().install()
        selector.select = tracer.span(selector.select, "idle")

    with asyncio.Runner(loop_factory=lambda: asyncio.SelectorEventLoop(selector)) as runner:
        result = runner.run(serve(args, tracer))
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
