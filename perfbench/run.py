"""End-to-end + per-layer benchmark of the FaST-GShare reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``.  ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes one untraced and one traced run for the per-layer
metrics and the tracing overhead.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; metric names and units
come from ``BENCHMARK.json``.

Simulated workloads replay their scenario in fresh worker processes (one
replay each, alternating ``PYTHONHASHSEED``) until ``--seconds`` is spent,
with at least two replays.  The live workload launches ``repro``'s
``LiveServer`` in a subprocess and drives it with a closed loop of two
connections.  Every run checks its outputs, and exits non-zero when:

* a sim report's SHA-256 differs between replays, hash seeds, or the
  traced and untraced runs;
* request conservation breaks (the report's submitted/completed counts
  disagree with an independent tally of the gateway's requests);
* live accounting breaks (fired != ok + non-200 + errors, or the drained
  report's ``submitted`` != the requests the client fired).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import statistics
import subprocess
import sys
import time

import workloads

HERE = workloads.HERE
ROOT = workloads.ROOT

#: A run gives up (non-zero exit) rather than exceed this many seconds.
RUN_BUDGET_S = 165.0
MIN_REPLAYS = 2
MIN_SETUP_SAMPLES = 7
LIVE_CONNECTIONS = 2
LIVE_MIN_REQUESTS = 1000
LIVE_BLOCK = 250


class BenchError(RuntimeError):
    """A check failed or a subprocess misbehaved."""


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Budget:
    """Wall time left before the run gives up (see ``RUN_BUDGET_S``)."""

    def __init__(self):
        self.start = time.monotonic()

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def remaining(self) -> float:
        left = RUN_BUDGET_S - self.elapsed
        if left <= 5.0:
            raise BenchError("run budget exhausted")
        return left


# -- simulated workloads ------------------------------------------------------

def spawn_worker(args, budget: Budget, *, hashseed: int, trace: bool = False,
                 setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if args.quick:
        cmd.append("--quick")
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    launched = time.time()
    proc = subprocess.run(
        cmd + ["--launched-at", repr(launched)], env=env, capture_output=True,
        text=True, timeout=budget.remaining(), cwd=ROOT,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {cmd[2:]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_replays(replays: list[dict]) -> None:
    digests = {r["digest"] for r in replays}
    if len(digests) != 1:
        raise BenchError(f"report digest differs between replays: {sorted(digests)}")
    for r in replays:
        never_served = r["tallied"] - r["tallied_completed"]
        if r["submitted"] != r["tallied"] or r["completed"] != r["tallied_completed"]:
            raise BenchError(
                f"request accounting: report submitted/completed {r['submitted']}/"
                f"{r['completed']} vs gateway tally {r['tallied']}/{r['tallied_completed']}"
            )
        if r["submitted"] != r["completed"] + never_served:
            raise BenchError("request conservation: submitted != completed + never-served")


def sim_outcomes(replay: dict, run_s: float) -> dict[str, float]:
    submitted = replay["submitted"]
    within_slo = replay["completed"] - replay["violated"]
    return {
        "slo_attainment": within_slo / submitted,
        "served_ratio": replay["completed"] / submitted,
        "gpu_seconds": replay["gpu_seconds"],
        "sim_p95_ms": replay["p95_ms"],
        "goodput_rps": within_slo / run_s,
        "overhead_ms": 1000.0 * run_s / submitted,
    }


def run_sim(args, budget: Budget) -> tuple[dict, int, int]:
    """End-to-end metrics of one simulated workload."""
    replays: list[dict] = []
    while True:
        t0 = time.monotonic()
        replays.append(spawn_worker(args, budget, hashseed=1 + len(replays) % 2))
        last = time.monotonic() - t0
        if len(replays) >= MIN_REPLAYS and budget.elapsed + last > args.seconds:
            break
    setups = [r["setup_s"] for r in replays]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(spawn_worker(args, budget, hashseed=1, setup_only=True)["setup_s"])
    check_replays(replays)
    print("replay run_s: " + " ".join(f"{r['run_s']:.3f}" for r in replays), file=sys.stderr)
    run_s = median(r["run_s"] for r in replays)
    metrics = {
        "run_s": run_s,
        "setup_s": median(setups),
        "peak_rss_mb": median(r["rss_mb"] for r in replays),
        **sim_outcomes(replays[0], run_s),
    }
    return metrics, len(replays), 0


def layer_metrics(self_s: dict, counts: dict, ticks: list) -> dict[str, float]:
    """Per-layer metrics shared by the sim and live traced runs."""
    metrics = {f"{layer}.self_s": seconds for layer, seconds in self_s.items()}
    for name in (
        "sim.callbacks", "sim.schedules", "sim.cancels", "gpu.bursts",
        "manager.token_requests", "faas.submits", "faas.completions",
        "scheduler.ticks", "scheduler.placements", "scheduler.placement_misses",
        "scheduler.restructures", "scheduler.p_eff_calls", "autoscaler.views",
        "profiler.lookups", "memtier.swap_ins", "memtier.demotions",
        "memtier.evictions", "memtier.transfers", "migrate.defrag_ticks",
        "migrate.migrations", "migrate.aborts", "k8s.scale_ups", "k8s.scale_downs",
        "serve.requests", "serve.driver_advances",
    ):
        metrics[name] = counts.get(name, 0)
    placements = counts.get("scheduler.placements", 0)
    metrics["scheduler.restructures_per_placement"] = (
        counts.get("scheduler.restructures", 0) / placements if placements else 0.0
    )
    durations = [t[0] for t in ticks]
    metrics["scheduler.tick_p50_ms"] = percentile(durations, 50)
    metrics["scheduler.tick_p99_ms"] = percentile(durations, 99)
    metrics["autoscaler.views_per_tick"] = (
        sum(t[1] for t in ticks) / len(ticks) if ticks else 0.0
    )
    metrics["autoscaler.active_views_per_tick"] = (
        sum(t[2] for t in ticks) / len(ticks) if ticks else 0.0
    )
    return metrics


def write_tick_record(args, ticks: list) -> None:
    """The per-tick record (duration, views built, active views) of a traced run."""
    if not ticks:
        return
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    path = out / f"ticks_{args.workload}_seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "columns": ["tick_ms", "views", "active_views"],
        "ticks": ticks,
    }) + "\n")
    print(f"[per-tick record: {path.relative_to(ROOT)}]", file=sys.stderr)


def run_sim_traced(args, budget: Budget) -> tuple[dict, int, int]:
    """Per-layer metrics of one simulated workload: untraced + traced replay."""
    plain = spawn_worker(args, budget, hashseed=1)
    traced = spawn_worker(args, budget, hashseed=2, trace=True)
    check_replays([plain, traced])  # the trace must leave the report byte-identical
    trace = traced["trace"]
    metrics = layer_metrics(trace["self_s"], trace["counts"], trace["ticks"])
    metrics.update({
        "serve.engine_s": 0.0,
        "serve.overhead_p99_ms": 0.0,
        "serve.rtt_p99_ms": 0.0,
        "scenario.build_s": traced["build_s"],
        "scenario.deploy_s": traced["deploy_s"],
        "trace_overhead_ratio": traced["run_s"] / plain["run_s"],
    })
    write_tick_record(args, trace["ticks"])
    return metrics, 2, 0


# -- live workload -------------------------------------------------------------

class LiveServerProcess:
    """``live_server.py`` in a subprocess; always reaped on exit."""

    def __init__(self, args, budget: Budget, trace: bool):
        cmd = [sys.executable, str(HERE / "live_server.py"), "--seed", str(args.seed)]
        if trace:
            cmd.append("--trace")
        self.budget = budget
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        self.port: int | None = None
        self.setup_s = 0.0

    def __enter__(self) -> "LiveServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    async def ready(self) -> None:
        """Wait for the bound port, then for the first ``/healthz`` 200."""
        from repro.serve.http import request

        line = await asyncio.wait_for(
            asyncio.to_thread(self.proc.stdout.readline), timeout=self.budget.remaining()
        )
        if not line.startswith("PORT "):
            raise BenchError(f"live server did not start (exit {self.proc.poll()})")
        self.port = int(line.split()[1])
        while True:
            try:
                response = await request("127.0.0.1", self.port, "GET", "/healthz")
                if response.status == 200:
                    break
            except OSError:
                pass
            self.budget.remaining()
            await asyncio.sleep(0.005)
        self.setup_s = time.monotonic() - self.launched

    async def drain(self) -> tuple[dict, dict]:
        """POST /drain → (live report, the server's own JSON result line)."""
        from repro.serve.http import request

        response = await request("127.0.0.1", self.port, "POST", "/drain", timeout=60.0)
        if response.status != 200:
            raise BenchError(f"drain answered {response.status}")
        report = response.json()
        out = await asyncio.to_thread(self.proc.communicate, timeout=self.budget.remaining())
        if self.proc.returncode != 0:
            raise BenchError(f"live server exited {self.proc.returncode}")
        return report, json.loads(out[0].strip().splitlines()[-1])


class ClosedLoop:
    """Closed-loop client: each connection fires its next request on a reply."""

    def __init__(self, port: int, names: list[str], slo_ms: dict[str, float], seed: int):
        self.port = port
        self.names = names
        self.slo_ms = slo_ms
        self.rng = random.Random(seed)  # the function order derives from the seed
        self.fired = self.ok = self.non200 = self.errors = self.within_slo = 0
        self.rtt_ms: list[float] = []
        self.overhead_ms: list[float] = []

    async def _connection(self, quota: list[int]) -> None:
        from repro.serve.http import HttpProtocolError, request

        while quota[0] > 0:
            quota[0] -= 1
            name = self.rng.choice(self.names)
            self.fired += 1
            t0 = time.perf_counter()
            try:
                response = await request(
                    "127.0.0.1", self.port, "POST", f"/function/{name}", timeout=10.0
                )
            except (OSError, asyncio.TimeoutError, HttpProtocolError):
                self.errors += 1
                continue
            rtt = 1000.0 * (time.perf_counter() - t0)
            if response.status != 200:
                self.non200 += 1
                continue
            self.ok += 1
            self.rtt_ms.append(rtt)
            self.overhead_ms.append(rtt - response.json()["latency_ms"])
            if rtt <= self.slo_ms[name]:
                self.within_slo += 1

    async def block(self, requests: int) -> float:
        """Fire ``requests`` over the connections; returns the wall seconds."""
        quota = [requests]
        t0 = time.perf_counter()
        await asyncio.gather(*(self._connection(quota) for _ in range(LIVE_CONNECTIONS)))
        return time.perf_counter() - t0

    def check(self, report: dict) -> None:
        if self.fired != self.ok + self.non200 + self.errors:
            raise BenchError("live accounting: fired != ok + non-200 + errors")
        if report["totals"]["submitted"] != self.fired:
            raise BenchError(
                f"live accounting: server submitted {report['totals']['submitted']} "
                f"!= client fired {self.fired}"
            )


async def serve_load(args, budget: Budget, *, trace: bool, min_requests: int,
                     seconds: float) -> tuple[ClosedLoop, list[float], float, dict, dict]:
    """Launch a server, run closed-loop blocks, drain; returns the measurements."""
    scenario = workloads.load("live_static", args.seed)
    names = [fn.name for fn in scenario.functions]
    from repro.models import MODEL_ZOO

    slo_ms = {fn.name: fn.slo_ms or MODEL_ZOO[fn.model].slo_ms for fn in scenario.functions}
    block = min(LIVE_BLOCK, min_requests)
    with LiveServerProcess(args, budget, trace) as server:
        await server.ready()
        loop = ClosedLoop(server.port, names, slo_ms, args.seed)
        t0 = time.monotonic()
        blocks = []
        while loop.fired < min_requests or time.monotonic() - t0 < seconds:
            blocks.append(await loop.block(block))
            budget.remaining()
        report, result = await server.drain()
    loop.check(report)
    return loop, blocks, server.setup_s, report, result


async def setup_only(args, budget: Budget) -> float:
    """Launch → first healthz 200 → drain: one more set-up sample."""
    with LiveServerProcess(args, budget, trace=False) as server:
        await server.ready()
        await server.drain()
    return server.setup_s


def live_requests(args) -> int:
    return 100 if args.quick else LIVE_MIN_REQUESTS


async def run_live(args, budget: Budget) -> tuple[dict, int, int]:
    loop, blocks, setup_s, report, result = await serve_load(
        args, budget, trace=False, min_requests=live_requests(args), seconds=args.seconds
    )
    setups = [setup_s]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(await setup_only(args, budget))
    metrics = {
        "run_s": median(blocks),
        "setup_s": median(setups),
        "peak_rss_mb": result["rss_mb"],
        "slo_attainment": loop.within_slo / loop.fired,
        "served_ratio": loop.ok / loop.fired,
        # GPUs held while one block was served (the report's own
        # gpu_seconds also covers set-up and drain, in 1 s samples).
        "gpu_seconds": report["cluster"]["mean_gpus"] * median(blocks),
        "sim_p95_ms": report["totals"]["p95_ms"],
        "goodput_rps": loop.within_slo / sum(blocks),
        "overhead_ms": percentile(loop.overhead_ms, 50),
    }
    return metrics, loop.fired, loop.fired - loop.ok


async def run_live_traced(args, budget: Budget) -> tuple[dict, int, int]:
    n = live_requests(args)
    plain, plain_blocks, _, _, _ = await serve_load(
        args, budget, trace=False, min_requests=n, seconds=0.0
    )
    traced, traced_blocks, _, _, result = await serve_load(
        args, budget, trace=True, min_requests=n, seconds=0.0
    )
    trace = result["trace"]
    metrics = layer_metrics(trace["self_s"], trace["counts"], [])
    metrics.update({
        "serve.engine_s": trace["engine_s"],
        "serve.overhead_p99_ms": percentile(plain.overhead_ms, 99),
        "serve.rtt_p99_ms": percentile(plain.rtt_ms, 99),
        "scenario.build_s": result["build_s"],
        "scenario.deploy_s": result["deploy_s"],
        "trace_overhead_ratio": sum(traced_blocks) / sum(plain_blocks),
    })
    fired = plain.fired + traced.fired
    return metrics, fired, fired - plain.ok - traced.ok


# -- entry point -------------------------------------------------------------------

def declared_metrics(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the scenario's committed seed)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="shrunk scenarios and load, for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not (workloads.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {workloads.SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    if args.seed is None:
        args.seed = workloads.load(args.workload).seed

    budget = Budget()
    trace = bool(args.trace)
    try:
        if args.workload in workloads.LIVE_WORKLOADS:
            runner = run_live_traced if trace else run_live
            values, attempted, failed = asyncio.run(runner(args, budget))
        else:
            runner = run_sim_traced if trace else run_sim
            values, attempted, failed = runner(args, budget)
    except (BenchError, subprocess.TimeoutExpired, OSError, asyncio.TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for spec in declared_metrics(trace):
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:>14.6g} {entry['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": True,  # every check passed, or the run exited non-zero above
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
