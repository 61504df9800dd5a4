"""Parallel experiment harness: fan figures and seed replicates across cores.

``python -m repro`` delegates here.  The harness builds a deterministic task
list (one :class:`ExperimentTask` per figure × replicate), then executes it
either serially or on a :class:`~concurrent.futures.ProcessPoolExecutor`.
Both paths call the *same* module-level :func:`run_task` with the same seeds,
and every simulation derives all randomness from its engine seed, so the
parallel run is bit-identical to the serial one — results differ only in
wall-clock time.

Seeds are derived per task with :func:`derive_task_seed`: replicate 0 keeps
the user's base seed (so ``--jobs 4`` reproduces exactly what the serial CLI
printed before parallelism existed), while replicate ``r > 0`` mixes the
experiment name and replicate index into it with the sweep's
:func:`~repro.sweep.spec.derive_cell_seed` (CRC-32, so deterministic across
processes and Python versions, unlike the salted ``hash()``).
"""

from __future__ import annotations

import dataclasses
import time
import typing as _t
from concurrent.futures import ProcessPoolExecutor

from repro.experiments import (
    ablations,
    fig01_motivation,
    fig08_profiling,
    fig09_isolation,
    fig10_spatial,
    fig11_scheduler,
    fig12_autoscaling,
    fig13_modelsharing,
    fig14_cluster,
    fig15_prewarm,
    headline,
)
from repro.sweep.spec import derive_cell_seed

#: Figure experiments exposing the uniform ``run(quick=, seed=)`` protocol.
SIMPLE_EXPERIMENTS: dict[str, _t.Any] = {
    "fig01": fig01_motivation,
    "fig08": fig08_profiling,
    "fig09": fig09_isolation,
    "fig10": fig10_spatial,
    "fig11": fig11_scheduler,
    "fig12": fig12_autoscaling,
    "fig13": fig13_modelsharing,
    "fig14": fig14_cluster,
    "fig15": fig15_prewarm,
    "headline": headline,
}


def experiment_names() -> list[str]:
    """Every runnable experiment, in the order ``all`` executes them."""
    return sorted(SIMPLE_EXPERIMENTS) + ["ablations"]


def derive_task_seed(base_seed: int, name: str, replicate: int) -> int:
    """Deterministic per-task seed; replicate 0 preserves the base seed."""
    if replicate == 0:
        return base_seed
    return derive_cell_seed(base_seed, f"{name}:{replicate}")


@dataclasses.dataclass(frozen=True, slots=True)
class ExperimentTask:
    """One unit of work: a figure at one seed."""

    name: str
    seed: int
    quick: bool = False
    replicate: int = 0


@dataclasses.dataclass(frozen=True, slots=True)
class TaskResult:
    """Formatted output + timing of one completed task."""

    name: str
    seed: int
    replicate: int
    output: str
    elapsed: float


def run_experiment(name: str, quick: bool = False, seed: int = 42) -> str:
    """Run one experiment by name and return its formatted report."""
    if name == "ablations":
        duration = 5.0 if quick else 12.0
        placement = ablations.run_placement_ablation(seed=seed, pods=200)
        tokens = ablations.run_token_ablation(seed=seed, quick=quick)
        priority = ablations.run_priority_ablation(duration=duration, seed=seed)
        return ablations.format_results(placement, tokens, priority)
    module = SIMPLE_EXPERIMENTS[name]
    return module.format_result(module.run(quick=quick, seed=seed))


def run_task(task: ExperimentTask) -> TaskResult:
    """Execute one task (module-level so it pickles into worker processes)."""
    start = time.perf_counter()
    output = run_experiment(task.name, quick=task.quick, seed=task.seed)
    return TaskResult(
        name=task.name,
        seed=task.seed,
        replicate=task.replicate,
        output=output,
        elapsed=time.perf_counter() - start,
    )


def build_tasks(
    names: _t.Sequence[str], *, seed: int = 42, quick: bool = False, replicates: int = 1
) -> list[ExperimentTask]:
    """The deterministic task list the suite executes, in output order."""
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    return [
        ExperimentTask(name, derive_task_seed(seed, name, r), quick, r)
        for name in names
        for r in range(replicates)
    ]


_TaskT = _t.TypeVar("_TaskT")
_ResultT = _t.TypeVar("_ResultT")


def map_tasks(
    fn: _t.Callable[[_TaskT], _ResultT], tasks: _t.Iterable[_TaskT], *, jobs: int = 1
) -> _t.Iterator[_ResultT]:
    """Order-preserving serial-or-process-pool map — the one pool code path.

    Every parallel driver in the repo (the figure suite, scenario sweeps)
    routes through here: ``jobs <= 1`` maps lazily in-process (consumers
    print incrementally), ``jobs > 1`` fans ``fn`` across a
    ``ProcessPoolExecutor``.  ``fn`` and each task must be picklable, and —
    because every simulation derives all randomness from seeds carried *in*
    the task — results are bit-identical between the two paths; they differ
    only in wall-clock time.
    """
    tasks = list(tasks)
    if jobs <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield fn(task)
        return
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        yield from pool.map(fn, tasks)


def iter_suite(
    names: _t.Sequence[str],
    *,
    seed: int = 42,
    quick: bool = False,
    jobs: int = 1,
    replicates: int = 1,
) -> _t.Iterator[TaskResult]:
    """Yield ``names`` × ``replicates`` task results as they become ready.

    Results arrive in task order regardless of completion order, and are
    bit-identical between ``jobs=1`` and ``jobs=N`` (same function, same
    derived seeds, independent engines).  Serially, each result is yielded
    as soon as its task finishes, so CLI consumers print incrementally.
    """
    tasks = build_tasks(names, seed=seed, quick=quick, replicates=replicates)
    yield from map_tasks(run_task, tasks, jobs=jobs)

