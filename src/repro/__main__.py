"""Command-line entry point: subcommands for experiments, scenarios, benches.

Usage::

    python -m repro list
    python -m repro run fig08 [--quick] [--seed 42]
    python -m repro run all --quick --jobs 4
    python -m repro scenario examples/scenarios/cold_bursty.json [--quick]
    python -m repro sweep examples/sweeps/azure_fleet.json --quick --jobs 2
    python -m repro sweep --diff A.json B.json   # compare two saved sweep reports
    python -m repro scenario SPEC.json --telemetry --trace-out T.json --prom-out M.prom
    python -m repro explain REPORT.json --worst 3 # causal chains for SLO violations
    python -m repro explain --diff A.json B.json # span-segment diff of two reports
    python -m repro serve examples/scenarios/cold_bursty.json --quick --port 8080
    python -m repro replay examples/scenarios/cold_bursty.json --quick --port 8080
    python -m repro sweep examples/benches/swap_quick.json --output S.json

Each subcommand owns its flags (``--output`` belongs to whatever report
that subcommand writes) instead of leaking them into one global namespace.

``run`` executes paper figures; ``--jobs N`` fans the selected experiments
(and ``--replicates R`` seed replicates of each) across ``N`` worker
processes via :mod:`repro.experiments.runner`; per-task seeds are
deterministic, so the parallel run prints bit-identical results to the
serial one.

``scenario`` evaluates a committed declarative spec (see
:mod:`repro.scenario`) through ``FaSTGShare.run_scenario`` — the same code
path fig12/fig14/fig15 use — printing the report summary and optionally
writing its JSON (``--output``).  A malformed spec (unknown field, bad
policy, bad model) exits non-zero with the offending path.

``serve`` runs the identical control plane live: deployment in virtual
time, then the engine paced against a wall clock behind an asyncio HTTP
front (invoke / health / stats / NDJSON telemetry / graceful drain — see
:mod:`repro.serve`).  ``replay`` fires the scenario's exact DES arrival
schedule at such a server with client timeouts, capped-backoff retries,
and optional hedged requests, then drains it and writes the live
``ScenarioReport`` (``mode: "live"``) for diffing against the sim run.

``sweep`` expands a committed parameter grid (see :mod:`repro.sweep`) over
a base scenario and executes every cell — the same driver fig14/fig15 use
for their policy comparisons — printing the cell table, per-axis deltas,
and the SLO-vs-GPU-cost Pareto frontier; ``--jobs N`` fans cells across the
process pool (bit-identical to serial).  ``sweep --diff A B`` compares two
saved sweep reports cell by cell instead of running anything.  A spec's
``assert`` block states what the comparison must show; ``sweep`` writes
its report and then exits 1 if an assertion fails.

The benches are committed sweep specs under ``examples/benches/``
(``cluster``, ``prewarm``, ``swap``, ``migrate``, ``fig11``, each with a
``_quick`` variant): placement policies on a heterogeneous cluster (fig14),
reactive vs predictive autoscaling (fig15), keep-alive vs the memory tier
on a long-tail fleet, defragmentation off vs on over a fragmented fleet,
and time sharing vs the FaST-Scheduler on Fig. 11's pod set.

Any invalid invocation (unknown subcommand or flag, malformed scenario or
sweep) exits non-zero with a usage message, and an experiment that raises
exits 1 — CI cannot silently pass on a typo'd run.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import runner
from repro.experiments.runner import SIMPLE_EXPERIMENTS, ablations


def _cmd_list() -> int:
    for name in runner.experiment_names():
        doc = (SIMPLE_EXPERIMENTS.get(name) or ablations).__doc__ or ""
        print(f"{name:<10} {doc.strip().splitlines()[0]}")
    print("scenario   Run a declarative scenario spec (examples/scenarios/*.json).")
    print("serve      Serve a scenario's control plane live over HTTP (wall-clock).")
    print("replay     Fire a scenario's DES arrival schedule at a live server.")
    print("sweep      Run a declarative parameter sweep (examples/sweeps/*.json) or diff reports.")
    print(
        "           Benches: sweep examples/benches/{cluster,prewarm,swap,migrate,fig11}[_quick].json"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    names = runner.experiment_names() if args.experiment == "all" else [args.experiment]
    try:
        results = runner.iter_suite(
            names,
            seed=args.seed,
            quick=args.quick,
            jobs=args.jobs,
            replicates=args.replicates,
        )
        for result in results:
            print(result.output)
            tag = result.name if result.replicate == 0 else f"{result.name} r{result.replicate}"
            print(f"[{tag} finished in {result.elapsed:.1f}s]\n")
    except BrokenPipeError:  # e.g. `python -m repro run ... | head`
        return 0
    except Exception as exc:  # experiment blew up: fail loudly, exit non-zero
        import traceback

        traceback.print_exc()
        print(f"error: {args.experiment}: {exc}", file=sys.stderr)
        return 1
    return 0


def _load_scenario_for_cli(args: argparse.Namespace):
    """Shared scenario/serve/replay preamble: load the spec, apply seed override."""
    import dataclasses

    from repro.scenario import ScenarioError, load_scenario

    try:
        scenario = load_scenario(args.spec)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    return scenario


def _with_telemetry(scenario):
    """``scenario`` with measurement telemetry switched on."""
    import dataclasses

    if scenario.measurement.telemetry:
        return scenario
    return dataclasses.replace(
        scenario, measurement=dataclasses.replace(scenario.measurement, telemetry=True)
    )


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.platform import FaSTGShare

    scenario = _load_scenario_for_cli(args)
    if scenario is None:
        return 2
    if args.telemetry or args.trace_out or args.prom_out:
        scenario = _with_telemetry(scenario)
    try:
        report = FaSTGShare.run_scenario(scenario, quick=args.quick)
        print(report.summary())
        if args.output:
            report.save(args.output)
            print(f"[report written to {args.output}]")
        if args.trace_out:
            _write_chrome_trace(report.telemetry, args.trace_out)
            print(f"[Chrome trace written to {args.trace_out}]")
        if args.prom_out:
            _write_prometheus(report.telemetry, args.prom_out)
            print(f"[Prometheus snapshot written to {args.prom_out}]")
    except BrokenPipeError:  # e.g. `python -m repro scenario ... | head`
        return 0
    except Exception as exc:  # bad trace reference, runner blow-up: exit non-zero
        import traceback

        traceback.print_exc()
        print(f"error: scenario {scenario.name!r}: {exc}", file=sys.stderr)
        return 1
    return 0


def _write_chrome_trace(telemetry: dict, path: str) -> None:
    """Export a report's spans as (validated) Chrome trace-event JSON."""
    import json

    from repro.obs import RequestSpan, to_chrome_trace, validate_chrome_trace

    spans = [RequestSpan.from_dict(s) for s in telemetry["spans"]]
    trace = to_chrome_trace(spans, clip_s=telemetry.get("end"))
    validate_chrome_trace(trace)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_prometheus(telemetry: dict, path: str) -> None:
    """Export a report's metrics snapshot as (validated) Prometheus text."""
    from repro.obs import MetricsRegistry, validate_prometheus_text

    registry = MetricsRegistry.from_dict(telemetry["metrics"])
    text = registry.to_prometheus_text()
    validate_prometheus_text(text)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_report_payload(path: str) -> dict | None:
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None
    if not isinstance(payload, dict):
        print(f"error: {path}: not a report object", file=sys.stderr)
        return None
    return payload


def _cmd_explain(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.obs import ExplainError, diff_reports, explain_report

    if args.diff is not None:
        if args.report is not None:
            parser.error("explain: give either a REPORT.json or --diff A B, not both")
        a = _load_report_payload(args.diff[0])
        b = _load_report_payload(args.diff[1])
        if a is None or b is None:
            return 2
        try:
            print(diff_reports(a, b))
        except ExplainError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except BrokenPipeError:  # e.g. `python -m repro explain --diff ... | head`
            return 0
        return 0
    if args.report is None:
        parser.error("explain: needs a REPORT.json (or --diff A B)")
    payload = _load_report_payload(args.report)
    if payload is None:
        return 2
    try:
        print(explain_report(payload, function=args.function, worst=args.worst))
    except ExplainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. `python -m repro explain ... | head`
        return 0
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeConfig, ServeError, serve_scenario

    scenario = _load_scenario_for_cli(args)
    if scenario is None:
        return 2
    if args.telemetry:
        scenario = _with_telemetry(scenario)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
        deadline_s=args.deadline,
    )

    def announce(server) -> None:
        print(
            f"[serving {scenario.name!r} on http://{config.host}:{server.port} — "
            "POST /drain to stop]",
            flush=True,
        )

    try:
        report = asyncio.run(
            serve_scenario(scenario, config, quick=args.quick, on_ready=announce)
        )
        print(report.summary())
        if args.output:
            report.save(args.output)
            print(f"[report written to {args.output}]")
    except ServeError as exc:
        print(f"error: serve: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("\nerror: serve: interrupted before drain", file=sys.stderr)
        return 130
    except Exception as exc:  # runner blow-up: exit non-zero
        import traceback

        traceback.print_exc()
        print(f"error: serve {scenario.name!r}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.serve import ReplayConfig, ReplayError, format_summary, replay

    scenario = _load_scenario_for_cli(args)
    if scenario is None:
        return 2
    config = ReplayConfig(
        host=args.host,
        port=args.port,
        timeout_s=args.timeout,
        retries=args.retries,
        backoff_s=args.backoff,
        backoff_cap_s=args.backoff_cap,
        hedge_s=args.hedge,
        speed=args.speed,
    )
    try:
        payload = asyncio.run(replay(scenario, config, quick=args.quick))
    except ReplayError as exc:
        print(f"error: replay: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("\nerror: replay: interrupted", file=sys.stderr)
        return 130
    print(format_summary(payload))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[report written to {args.output}]")
    return 0


def _cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    import dataclasses

    from repro.sweep import SweepError, diff_reports, load_sweep, load_sweep_report, run_sweep

    if args.diff is not None:
        if args.spec is not None:
            parser.error("sweep: give either a SPEC.json to run or --diff A B, not both")
        try:
            a = load_sweep_report(args.diff[0])
            b = load_sweep_report(args.diff[1])
            print(diff_reports(a, b))
        except SweepError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except BrokenPipeError:  # e.g. `python -m repro sweep --diff ... | head`
            return 0
        return 0
    if args.spec is None:
        parser.error("sweep: needs a SPEC.json to run (or --diff A B)")
    try:
        sweep = load_sweep(args.spec)
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        sweep = dataclasses.replace(
            sweep, base=dataclasses.replace(sweep.base, seed=args.seed)
        )
    try:
        report = run_sweep(
            sweep,
            quick=args.quick,
            jobs=args.jobs,
            progress=lambda cell: print(f"[cell {cell.key} done]", file=sys.stderr),
        )
        print(report.summary())
        if args.output:
            report.save(args.output)
            print(f"[report written to {args.output}]")
    except BrokenPipeError:  # e.g. `python -m repro sweep ... | head`
        return 0
    except Exception as exc:  # bad trace reference, runner blow-up: exit non-zero
        import traceback

        traceback.print_exc()
        print(f"error: sweep {sweep.name!r}: {exc}", file=sys.stderr)
        return 1
    failed = [r for r in report.assertion_results() if not r["holds"]]
    for result in failed:
        print(
            f"error: assertion failed: {result['cell']} vs {', '.join(result['vs'])}: "
            + "; ".join(result["failed"]),
            file=sys.stderr,
        )
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate FaST-GShare (ICPP 2023) experiments and scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_run = sub.add_parser("run", help="run paper figure experiments")
    p_run.add_argument(
        "experiment",
        nargs="?",
        default="all",
        choices=sorted(SIMPLE_EXPERIMENTS) + ["ablations", "all"],
        help="which experiment to run (default: all)",
    )
    p_run.add_argument("--quick", action="store_true", help="shrunk durations for a fast pass")
    p_run.add_argument("--seed", type=int, default=42)
    p_run.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the experiment suite (default: 1 = serial)",
    )
    p_run.add_argument(
        "--replicates",
        type=int,
        default=1,
        metavar="R",
        help="seed replicates per experiment (deterministic derived seeds)",
    )

    sub.add_parser("list", help="list runnable experiments and benches")

    p_scenario = sub.add_parser(
        "scenario", help="run a declarative scenario spec (JSON)"
    )
    p_scenario.add_argument("spec", metavar="SPEC.json", help="path to a scenario file")
    p_scenario.add_argument(
        "--quick", action="store_true", help="run the deterministic shrunk variant"
    )
    p_scenario.add_argument(
        "--seed", type=int, default=None, help="override the spec's seed"
    )
    p_scenario.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the ScenarioReport JSON here",
    )
    p_scenario.add_argument(
        "--telemetry",
        action="store_true",
        help="record structured telemetry (events/spans/metrics) into the report",
    )
    p_scenario.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="export request spans as Chrome trace-event JSON (implies --telemetry); "
        "open in Perfetto (https://ui.perfetto.dev)",
    )
    p_scenario.add_argument(
        "--prom-out",
        default=None,
        metavar="PATH",
        help="export the metrics snapshot as Prometheus text (implies --telemetry)",
    )

    p_explain = sub.add_parser(
        "explain",
        help="reconstruct causal chains behind the worst SLO violations in a "
        "telemetry-enabled ScenarioReport",
    )
    p_explain.add_argument(
        "report",
        nargs="?",
        default=None,
        metavar="REPORT.json",
        help="a report saved with telemetry enabled",
    )
    p_explain.add_argument(
        "--function", default=None, metavar="F", help="only explain this function"
    )
    p_explain.add_argument(
        "--worst", type=int, default=3, metavar="N", help="how many violations (default 3)"
    )
    p_explain.add_argument(
        "--diff",
        nargs=2,
        default=None,
        metavar=("A.json", "B.json"),
        help="compare per-function wait/cold/swap segment means between two "
        "telemetry-bearing reports instead of explaining one",
    )

    p_serve = sub.add_parser(
        "serve",
        help="serve a scenario's control plane live over HTTP (wall-clock time)",
    )
    p_serve.add_argument("spec", metavar="SPEC.json", help="path to a scenario file")
    p_serve.add_argument(
        "--quick", action="store_true", help="serve the deterministic shrunk variant"
    )
    p_serve.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    p_serve.add_argument("--host", default="127.0.0.1", metavar="ADDR")
    p_serve.add_argument(
        "--port", type=int, default=8080, metavar="P", help="listen port (default 8080)"
    )
    p_serve.add_argument(
        "--max-connections",
        type=int,
        default=64,
        metavar="N",
        help="concurrent-connection cap; excess connections get 503 (default 64)",
    )
    p_serve.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-request completion deadline; 504 past it (default 30)",
    )
    p_serve.add_argument(
        "--telemetry",
        action="store_true",
        help="record telemetry into the drained report and enable "
        "GET /telemetry/stream (live NDJSON)",
    )
    p_serve.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the drained live ScenarioReport JSON here",
    )

    p_replay = sub.add_parser(
        "replay",
        help="fire a scenario's exact DES arrival schedule at a live server",
    )
    p_replay.add_argument("spec", metavar="SPEC.json", help="path to a scenario file")
    p_replay.add_argument(
        "--quick", action="store_true", help="replay the deterministic shrunk variant"
    )
    p_replay.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    p_replay.add_argument("--host", default="127.0.0.1", metavar="ADDR")
    p_replay.add_argument(
        "--port", type=int, default=8080, metavar="P", help="server port (default 8080)"
    )
    p_replay.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="per-request response deadline (default 10)",
    )
    p_replay.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="extra attempts on timeout/connection error/5xx (default 2)",
    )
    p_replay.add_argument(
        "--backoff",
        type=float,
        default=0.1,
        metavar="SECONDS",
        help="initial retry backoff, doubled per attempt (default 0.1)",
    )
    p_replay.add_argument(
        "--backoff-cap",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="retry backoff ceiling (default 2.0)",
    )
    p_replay.add_argument(
        "--hedge",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fire a duplicate request if the primary is silent this long "
        "(default: hedging off)",
    )
    p_replay.add_argument(
        "--speed",
        type=float,
        default=1.0,
        metavar="X",
        help="arrival-time compression (2.0 = twice as fast; values != 1 "
        "distort comparability against the DES run)",
    )
    p_replay.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the drained live report (+ client stats) JSON here",
    )

    p_sweep = sub.add_parser(
        "sweep", help="run a declarative parameter sweep (JSON) or diff two reports"
    )
    p_sweep.add_argument(
        "spec", nargs="?", default=None, metavar="SPEC.json", help="path to a sweep file"
    )
    p_sweep.add_argument(
        "--quick", action="store_true", help="run each cell's deterministic shrunk variant"
    )
    p_sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the grid cells (default: 1 = serial; "
        "bit-identical to serial)",
    )
    p_sweep.add_argument(
        "--seed", type=int, default=None, help="override the base scenario's seed"
    )
    p_sweep.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the SweepReport JSON here",
    )
    p_sweep.add_argument(
        "--diff",
        nargs=2,
        default=None,
        metavar=("A.json", "B.json"),
        help="compare two saved sweep reports cell by cell instead of running",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        if args.replicates < 1:
            parser.error(f"--replicates must be >= 1, got {args.replicates}")
        return _cmd_run(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "sweep":
        return _cmd_sweep(args, parser)
    if args.command == "explain":
        return _cmd_explain(args, parser)
    if args.command == "serve":
        return _cmd_serve(args)
    return _cmd_replay(args)


if __name__ == "__main__":
    sys.exit(main())
