"""Self-test of the benchmark: a shortened run of every workload, both modes.

    python3 -m pytest perfbench/test_perfbench.py -q

Each shortened run (``--quick``: shrunk scenarios, 100 live requests) must
exit 0, pass every check, and emit exactly the metrics ``BENCHMARK.json``
declares for its mode, each with its declared unit.  A copy of the
benchmark without the program source next to it must fail without printing
a result.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_emits_every_declared_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0, metric["name"]


def test_traced_sim_run_attributes_time_to_layers():
    proc = bench("--workload", "mixed_fleet", "--seed", "3", "--seconds", "1",
                 "--trace", "1", "--quick")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    value = {name: entry["value"] for name, entry in metrics.items()}
    assert value["faas.submits"] == value["faas.completions"] > 0
    assert value["manager.token_requests"] >= value["faas.completions"]
    assert value["sim.callbacks"] > 0 and value["scheduler.ticks"] > 0
    request_path = sum(value[f"{layer}.self_s"] for layer in ("sim", "gpu", "manager", "faas"))
    assert request_path > value["scheduler.self_s"] + value["autoscaler.self_s"]


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "mixed_fleet", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
