"""One fresh process replaying one simulated workload (spawned by ``run.py``).

    python3 perfbench/worker.py --workload mixed_fleet --launched-at T
        [--seed N] [--trace] [--setup-only] [--quick]

Set-up runs from process launch (``--launched-at``, the parent's
``time.time()`` just before spawning) through imports, spec load,
``build_platform`` and ``prepare_control_plane``; the measured run is the
rest of ``run_scenario`` plus serializing the report.  The last stdout line
is one JSON object with the timings, the report digest, the simulated
outcomes, an independent request tally, and (``--trace``) the per-layer
trace of the run phase.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.SIM_WORKLOADS)
    parser.add_argument("--launched-at", type=float, required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(workloads.SRC))
    import repro.scenario.runner as runner
    from repro.faas.gateway import Gateway

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()

    scenario = workloads.load(args.workload, args.seed, args.quick)
    marks: dict[str, object] = {}
    build, prepare = runner.build_platform, runner.prepare_control_plane

    def timed_build(spec):
        t0 = time.perf_counter()
        platform = build(spec)
        marks["build_s"] = time.perf_counter() - t0
        marks["platform"] = platform
        return platform

    def timed_prepare(spec, platform):
        t0 = time.perf_counter()
        plane = prepare(spec, platform)
        marks["ready_wall"] = time.time()
        marks["ready"] = time.perf_counter()
        marks["deploy_s"] = marks["ready"] - t0
        if tracer is not None:
            tracer.reset()
        return plane

    runner.build_platform, runner.prepare_control_plane = timed_build, timed_prepare

    # Independent tally of every request the gateway accepted, to check the
    # report's accounting against.
    requests = []
    submit = Gateway.submit

    def tallied_submit(gateway, function, done_event=None):
        request = submit(gateway, function, done_event)
        requests.append(request)
        return request

    Gateway.submit = tallied_submit

    if args.setup_only:
        runner.prepare_control_plane(scenario, runner.build_platform(scenario))
        report = None
    else:
        report = runner.run_scenario(scenario)
        payload = report.to_json()
        run_s = time.perf_counter() - marks["ready"]

    result: dict[str, object] = {
        "setup_s": marks["ready_wall"] - args.launched_at,
        "build_s": marks["build_s"],
        "deploy_s": marks["deploy_s"],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if report is not None:
        violated = sum(
            int((o.run.log.latencies_ms() > o.run.slo_ms).sum()) for o in report.functions
        )
        result.update(
            run_s=run_s,
            digest=hashlib.sha256(payload.encode("utf-8")).hexdigest(),
            submitted=report.submitted,
            completed=report.completed,
            violated=violated,
            tallied=len(requests),
            tallied_completed=sum(1 for r in requests if r.end is not None),
            gpu_seconds=report.gpu_seconds,
            p95_ms=report.overall_p95_ms,
        )
        if tracer is not None:
            migrator = marks["platform"].migrator
            counts = dict(tracer.counts)
            counts["migrate.migrations"] = migrator.completed if migrator else 0
            counts["migrate.aborts"] = migrator.aborted if migrator else 0
            result["trace"] = {
                "self_s": tracer.layer_self_s(run_s),
                "counts": counts,
                "ticks": tracer.ticks,
            }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
