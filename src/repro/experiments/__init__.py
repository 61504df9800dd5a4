"""Experiment runners: one module per paper figure/table.

Every figure module exposes ``run(quick=, seed=)`` and
``format_result(result) -> str`` printing the same rows/series the paper
reports.  fig01-fig13 and ``headline`` return a per-figure result
dataclass; fig14 and fig15 return the
:class:`~repro.sweep.report.SweepReport` of their ``bench_sweep`` — the
same sweep the committed ``examples/benches`` specs hold.  fig11 also has
a ``bench_sweep`` (``examples/benches/fig11{,_quick}.json``) and reads its
result off each cell's scenario report.  ``quick=True`` shrinks durations
for CI without changing the experimental structure;
``benchmarks/test_fig*.py`` assert the paper's shapes at larger scale.

==========  ==========================================================
fig01       motivation: device plugin vs time sharing (Fig. 1a/1b)
fig08       profiler throughput grid, 4 models (Fig. 8)
fig09       temporal-only interference vs spatio-temporal isolation (Fig. 9)
fig10       spatial sharing: throughput/latency/util/occupancy (Fig. 10)
fig11       scheduler packing across 4 nodes, a ``sharing`` sweep (Fig. 11)
fig12       auto-scaling under a stepped trace, SLO violations (Fig. 12)
fig13       model-sharing memory footprints (Fig. 13)
fig14       cluster-scale trace replay on heterogeneous GPUs (extension)
fig15       predictive pre-warming vs reactive autoscaling (extension)
headline    the 3.15x / 1.34x / 3.13x summary, from Fig. 10/11 cells (§1, §5)
ablations   MRA vs placement baselines; token scheduler variants
==========  ==========================================================

:mod:`repro.experiments.runner` executes any subset of these — serially or
fanned across a process pool with deterministic per-task seeds.
"""

from repro.experiments import (  # noqa: F401  (re-export for discoverability)
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
from repro.experiments import runner  # noqa: E402,F401  (after the figure
# modules: runner re-imports them from this partially-initialised package)

__all__ = [
    "ablations",
    "fig01_motivation",
    "fig08_profiling",
    "fig09_isolation",
    "fig10_spatial",
    "fig11_scheduler",
    "fig12_autoscaling",
    "fig13_modelsharing",
    "fig14_cluster",
    "fig15_prewarm",
    "headline",
    "runner",
]
