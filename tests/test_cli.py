"""CLI contract tests: valid invocations succeed, typos exit non-zero.

The CLI is argparse subparsers (``run`` / ``list`` / ``scenario`` / ``sweep``
/ ``serve`` / ...); each subcommand owns its flags, so a ``sweep`` flag on
``run`` is a usage error, not a silently ignored option.  The extension
benches are committed sweep specs (``examples/benches/``), so their
malformed variants exit 2 through ``sweep`` with the offending path.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.__main__ import main

EXAMPLE_SCENARIO = str(
    __import__("pathlib").Path(__file__).resolve().parents[1]
    / "examples"
    / "scenarios"
    / "cold_bursty.json"
)
BENCHES = pathlib.Path(__file__).resolve().parents[1] / "examples" / "benches"


def _bench_variant(tmp_path, bench: str, edit) -> str:
    """Write a copy of a committed quick bench spec with ``edit`` applied."""
    spec = json.loads((BENCHES / f"{bench}_quick.json").read_text())
    edit(spec)
    path = tmp_path / f"{bench}_variant.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_no_subcommand_exits_nonzero_with_usage(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_unknown_subcommand_exits_nonzero_with_usage(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["benhc"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "invalid choice" in err


def test_unknown_experiment_exits_nonzero_with_usage(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "fig99"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "invalid choice" in err


def test_unknown_flag_exits_nonzero_with_usage(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--quik"])
    assert excinfo.value.code == 2
    assert "usage:" in capsys.readouterr().err
    # There is no `bench` subcommand.
    with pytest.raises(SystemExit) as excinfo:
        main(["bench"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_bench_flags_do_not_leak_into_run(capsys):
    # --output belongs to the report-writing subcommands; `run` must reject it.
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "fig12", "--output", "foo.json"])
    assert excinfo.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_bad_cluster_policy_exits_nonzero(tmp_path, capsys):
    def edit(spec):
        spec["axes"][0]["values"][0] = "binpak"

    assert main(["sweep", _bench_variant(tmp_path, "cluster", edit)]) == 2
    assert "unknown placement 'binpak'" in capsys.readouterr().err


def test_bad_cluster_gpu_exits_nonzero(tmp_path, capsys):
    def edit(spec):
        spec["base"]["cluster"]["nodes"] = ["V100", "H900"]

    assert main(["sweep", _bench_variant(tmp_path, "cluster", edit)]) == 2
    assert "unknown GPU type 'H900'" in capsys.readouterr().err


def test_bad_replicates_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "fig13", "--replicates", "0"])
    assert excinfo.value.code == 2
    assert "--replicates" in capsys.readouterr().err


def test_bad_prewarm_policy_exits_nonzero(tmp_path, capsys):
    def edit(spec):
        spec["axes"][0]["values"][1] = "predictve"

    assert main(["sweep", _bench_variant(tmp_path, "prewarm", edit)]) == 2
    assert "unknown policy 'predictve'" in capsys.readouterr().err


def test_missing_trace_file_exits_one(tmp_path, capsys):
    def edit(spec):
        spec["base"]["functions"][0]["workload"] = {"kind": "trace", "path": "/nonexistent.json"}

    assert main(["sweep", _bench_variant(tmp_path, "prewarm", edit)]) == 1
    assert "/nonexistent.json" in capsys.readouterr().err


def test_list_mentions_every_subcommand(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig14" in out and "fig15" in out
    assert "examples/benches/{cluster,prewarm,swap,migrate,fig11,tokens}" in out
    assert "scenario" in out and "sweep" in out
    assert "swap-bench" not in out


def test_cluster_bench_quick_writes_report(tmp_path, capsys):
    out_path = tmp_path / "BENCH_cluster.json"
    code = main(["sweep", str(BENCHES / "cluster_quick.json"), "--output", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["benchmark"] == "sweep"
    assert report["sweep"]["name"] == "fig14-placement"
    assert report["sweep"]["base"]["cluster"]["nodes"] == ["V100", "A100", "T4"]
    assert [cell["key"] for cell in report["cells"]] == [
        "placement=binpack",
        "placement=spread",
        "placement=affinity",
    ]
    for cell in report["cells"]:
        assert 0.0 <= cell["metrics"]["slo_violation_ratio"] <= 1.0
        assert cell["metrics"]["peak_gpus"] >= 1
        assert cell["metrics"]["completed"] > 0
    assert "assert" not in report  # the cluster spec states no assertion
    assert "Sweep 'fig14-placement'" in capsys.readouterr().out


# -- scenario subcommand ----------------------------------------------------------


def test_scenario_missing_file_exits_nonzero(capsys):
    assert main(["scenario", "/nonexistent/spec.json"]) == 2
    assert "cannot read scenario file" in capsys.readouterr().err


def test_scenario_invalid_json_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["scenario", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_scenario_unknown_field_exits_nonzero(tmp_path, capsys):
    from repro.scenario import load_scenario

    spec = json.loads(__import__("pathlib").Path(EXAMPLE_SCENARIO).read_text())
    spec["functions"][0]["workload"]["shapee"] = "bursty"
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(spec))
    assert main(["scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "unknown field" in err and "shapee" in err
    # sanity: the pristine committed file still loads
    assert load_scenario(EXAMPLE_SCENARIO).name == "cold_bursty"


def test_scenario_wrong_typed_field_exits_two_naming_its_path(tmp_path, capsys):
    spec = json.loads(__import__("pathlib").Path(EXAMPLE_SCENARIO).read_text())
    spec["autoscaler"]["enabled"] = "false"  # a string, not a boolean
    path = tmp_path / "string_bool.json"
    path.write_text(json.dumps(spec))
    assert main(["scenario", str(path)]) == 2
    assert "autoscaler.enabled: expected true/false" in capsys.readouterr().err


def test_scenario_bad_policy_exits_nonzero(tmp_path, capsys):
    spec = json.loads(__import__("pathlib").Path(EXAMPLE_SCENARIO).read_text())
    spec["autoscaler"]["policy"] = "hybrdi"
    path = tmp_path / "badpolicy.json"
    path.write_text(json.dumps(spec))
    assert main(["scenario", str(path)]) == 2
    assert "unknown policy" in capsys.readouterr().err


def test_scenario_quick_runs_and_writes_report(tmp_path, capsys):
    out_path = tmp_path / "scenario_report.json"
    code = main(
        [
            "scenario",
            EXAMPLE_SCENARIO,
            "--quick",
            "--output",
            str(out_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Scenario 'cold_bursty'" in out
    report = json.loads(out_path.read_text())
    assert report["benchmark"] == "scenario"
    assert report["quick"] is True
    assert report["scenario"]["name"] == "cold_bursty"
    assert report["totals"]["completed"] > 0
    assert set(report["functions"]) == {
        f["name"] for f in report["scenario"]["functions"]
    }
    for metrics in report["functions"].values():
        assert 0.0 <= metrics["slo_violation_ratio"] <= 1.0
    assert report["cluster"]["peak_gpus"] >= 1
    series = report["cluster"]["utilization_timeseries"]
    assert len(series["t"]) == len(series["gpus_in_use"]) > 0


def _tiny_sweep_spec(tmp_path):
    """Write a minimal runnable sweep spec and return its path."""
    spec = {
        "format": "fast-gshare-sweep/1",
        "name": "cli-grid",
        "base": {
            "format": "fast-gshare-scenario/1",
            "name": "cli-base",
            "seed": 5,
            "cluster": {"nodes": ["V100"], "sharing": "fast"},
            "functions": [
                {
                    "name": "res",
                    "model": "resnet50",
                    "workload": {"kind": "counts", "counts": [6, 10], "bin_s": 2.0},
                }
            ],
            "autoscaler": {"interval": 0.5},
            "measurement": {},
        },
        "axes": [{"axis": "placement", "values": ["binpack", "spread"]}],
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_sweep_without_spec_or_diff_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep"])
    assert excinfo.value.code == 2
    assert "SPEC.json" in capsys.readouterr().err


def test_sweep_spec_plus_diff_exits_nonzero(tmp_path, capsys):
    spec = _tiny_sweep_spec(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", spec, "--diff", "a.json", "b.json"])
    assert excinfo.value.code == 2


def test_sweep_missing_file_exits_two(capsys):
    assert main(["sweep", "no/such/sweep.json"]) == 2
    assert "cannot read sweep file" in capsys.readouterr().err


def test_sweep_unknown_axis_exits_two(tmp_path, capsys):
    spec = json.loads(pathlib.Path(_tiny_sweep_spec(tmp_path)).read_text())
    spec["axes"].append({"axis": "warp_drive", "values": [1]})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", str(path)]) == 2
    assert "unknown axis" in capsys.readouterr().err


def test_sweep_runs_and_writes_report(tmp_path, capsys):
    spec = _tiny_sweep_spec(tmp_path)
    out_path = tmp_path / "sweep_report.json"
    assert main(["sweep", spec, "--quick", "--output", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "Sweep 'cli-grid'" in out
    assert "placement=spread" in out
    report = json.loads(out_path.read_text())
    assert report["benchmark"] == "sweep"
    assert report["quick"] is True
    assert [cell["key"] for cell in report["cells"]] == [
        "placement=binpack",
        "placement=spread",
    ]
    for cell in report["cells"]:
        assert cell["metrics"]["completed"] > 0
        assert cell["report"]["benchmark"] == "scenario"


def test_sweep_jobs_output_matches_serial(tmp_path):
    spec = _tiny_sweep_spec(tmp_path)
    serial_path = tmp_path / "serial.json"
    parallel_path = tmp_path / "parallel.json"
    assert main(["sweep", spec, "--quick", "--output", str(serial_path)]) == 0
    assert main(["sweep", spec, "--quick", "--jobs", "2", "--output", str(parallel_path)]) == 0
    assert serial_path.read_text() == parallel_path.read_text()


def test_sweep_diff_compares_saved_reports(tmp_path, capsys):
    spec = _tiny_sweep_spec(tmp_path)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["sweep", spec, "--quick", "--output", str(a)]) == 0
    assert main(["sweep", spec, "--quick", "--seed", "9", "--output", str(b)]) == 0
    capsys.readouterr()  # drop the run output
    assert main(["sweep", "--diff", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "matched 2" in out
    assert "Δviol(pp)" in out


def test_sweep_diff_rejects_non_report(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{}")
    assert main(["sweep", "--diff", str(path), str(path)]) == 2
    assert "unsupported format" in capsys.readouterr().err


def test_sweep_diff_malformed_cells_exits_two(tmp_path, capsys):
    spec = _tiny_sweep_spec(tmp_path)
    good = tmp_path / "good.json"
    assert main(["sweep", spec, "--quick", "--output", str(good)]) == 0
    report = json.loads(good.read_text())
    del report["cells"][0]["coords"]  # structurally broken report
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["sweep", "--diff", str(bad), str(good)]) == 2
    assert "coords" in capsys.readouterr().err


def test_duplicate_policies_exit_with_usage(tmp_path, capsys):
    def edit(spec):
        spec["axes"][0]["values"] = ["reactive", "reactive"]

    assert main(["sweep", _bench_variant(tmp_path, "prewarm", edit)]) == 2
    assert "duplicate values" in capsys.readouterr().err


def test_migrate_bench_bad_threshold_exits_nonzero(tmp_path, capsys):
    def edit(spec):
        spec["axes"][0]["values"] = [None, 1.5]

    assert main(["sweep", _bench_variant(tmp_path, "migrate", edit)]) == 2
    assert "defrag threshold must be in (0, 1)" in capsys.readouterr().err


def test_migrate_bench_bad_gpu_exits_nonzero(tmp_path, capsys):
    def edit(spec):
        spec["base"]["cluster"]["nodes"] = ["V100", "H900"]

    assert main(["sweep", _bench_variant(tmp_path, "migrate", edit)]) == 2
    assert "unknown GPU type" in capsys.readouterr().err


# -- sweep assertions and path bases ----------------------------------------------


def test_sweep_failed_assertion_exits_one_and_still_writes_report(tmp_path, capsys):
    spec = json.loads(pathlib.Path(_tiny_sweep_spec(tmp_path)).read_text())
    # spread is not cheaper than binpack on one V100 (equal GPU-seconds).
    spec["assert"] = [
        {"cell": "placement=spread", "vs": ["placement=binpack"], "lt": ["gpu_seconds"]}
    ]
    path = tmp_path / "asserting.json"
    path.write_text(json.dumps(spec))
    out_path = tmp_path / "report.json"
    assert main(["sweep", str(path), "--quick", "--output", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert "assertion failed: placement=spread vs placement=binpack: gpu_seconds" in err
    report = json.loads(out_path.read_text())
    assert report["assert"][0]["holds"] is False


def test_sweep_relative_base_path_resolves_against_spec_dir(tmp_path, capsys):
    spec = json.loads(pathlib.Path(_tiny_sweep_spec(tmp_path)).read_text())
    (tmp_path / "scenarios").mkdir()
    (tmp_path / "scenarios" / "base.json").write_text(json.dumps(spec["base"]))
    (tmp_path / "sweeps").mkdir()
    spec["base"] = "../scenarios/base.json"
    path = tmp_path / "sweeps" / "by_path.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", str(path), "--quick"]) == 0
    assert "Sweep 'cli-grid'" in capsys.readouterr().out


def test_sweep_missing_base_file_exits_two(tmp_path, capsys):
    spec = json.loads(pathlib.Path(_tiny_sweep_spec(tmp_path)).read_text())
    spec["base"] = "no_such_scenario.json"
    path = tmp_path / "missing_base.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", str(path)]) == 2
    err = capsys.readouterr().err
    assert "base:" in err and "cannot read scenario file" in err
