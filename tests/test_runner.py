"""Tests for the parallel experiment runner."""

from __future__ import annotations

from repro.experiments import runner


def test_experiment_names_cover_cli_registry():
    names = runner.experiment_names()
    assert names[-1] == "ablations"
    assert set(names[:-1]) == set(runner.SIMPLE_EXPERIMENTS)


def test_derive_task_seed_is_deterministic_and_replicate0_preserving():
    assert runner.derive_task_seed(42, "fig08", 0) == 42
    a = runner.derive_task_seed(42, "fig08", 1)
    b = runner.derive_task_seed(42, "fig08", 1)
    assert a == b
    assert a != 42
    # Different figures / replicates decorrelate.
    assert runner.derive_task_seed(42, "fig09", 1) != a
    assert runner.derive_task_seed(42, "fig08", 2) != a
    assert 0 <= a < 2**31


def test_build_tasks_orders_name_major_replicate_minor():
    tasks = runner.build_tasks(["fig13", "fig01"], seed=7, quick=True, replicates=2)
    assert [(t.name, t.replicate) for t in tasks] == [
        ("fig13", 0), ("fig13", 1), ("fig01", 0), ("fig01", 1),
    ]
    assert tasks[0].seed == 7
    assert tasks[1].seed == runner.derive_task_seed(7, "fig13", 1)


def test_parallel_suite_is_bit_identical_to_serial():
    serial = list(runner.iter_suite(["fig13"], seed=42, quick=True, jobs=1, replicates=2))
    parallel = list(runner.iter_suite(["fig13"], seed=42, quick=True, jobs=2, replicates=2))
    assert [r.output for r in serial] == [r.output for r in parallel]
    assert [r.seed for r in serial] == [r.seed for r in parallel]


def test_run_experiment_matches_module_format():
    from repro.experiments import fig13_modelsharing

    expected = fig13_modelsharing.format_result(
        fig13_modelsharing.run(quick=True, seed=42)
    )
    assert runner.run_experiment("fig13", quick=True, seed=42) == expected


def test_cli_parallel_all_quick_smoke(capsys):
    from repro.__main__ import main

    assert main(["run", "fig13", "--quick", "--jobs", "2", "--replicates", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("Fig. 13") == 2
    assert "[fig13 finished" in out and "[fig13 r1 finished" in out
