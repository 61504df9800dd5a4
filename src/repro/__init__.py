"""repro — a full reproduction of FaST-GShare (ICPP 2023).

FaST-GShare is a FaaS-oriented spatio-temporal GPU-sharing architecture for
deep-learning inference.  This package reimplements the whole system — the
FaST-Manager (multi-token temporal scheduler + MPS spatial partitions), the
FaST-Profiler, the FaST-Scheduler (heuristic auto-scaling + Maximal
Rectangles placement), and model sharing — on top of a discrete-event GPU and
Kubernetes/OpenFaaS substrate, so every experiment in the paper can be
regenerated on a laptop.

Quickstart (every measured run is a declarative scenario; build one in
Python with :class:`repro.scenario.Scenario`)::

    from repro.scenario import load_scenario, run_scenario

    report = run_scenario(load_scenario("examples/scenarios/cold_bursty.json"), quick=True)
    print(report.summary())
"""

__version__ = "1.1.0"

from repro.models import MODEL_ZOO, ModelProfile, get_model

__all__ = [
    "MODEL_ZOO",
    "ModelProfile",
    "get_model",
    "__version__",
]


def __getattr__(name: str):
    # Lazy exports: the platform facade pulls in every subsystem; importing it
    # lazily keeps `import repro` cheap and avoids import cycles in substrates.
    home = {"FaSTGShare": "repro.platform", "RunReport": "repro.scenario.report"}.get(name)
    if home is not None:
        import importlib

        return getattr(importlib.import_module(home), name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
