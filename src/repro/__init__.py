"""repro — a full reproduction of FaST-GShare (ICPP 2023).

FaST-GShare is a FaaS-oriented spatio-temporal GPU-sharing architecture for
deep-learning inference.  This package reimplements the whole system — the
FaST-Manager (multi-token temporal scheduler + MPS spatial partitions), the
FaST-Profiler, the FaST-Scheduler (heuristic auto-scaling + Maximal
Rectangles placement), and model sharing — on top of a discrete-event GPU and
Kubernetes/OpenFaaS substrate, so every experiment in the paper can be
regenerated on a laptop.

Quickstart::

    from repro import FaSTGShare, get_model

    platform = FaSTGShare.build(nodes=1, gpu="V100", seed=42)
    platform.register_function("classify", model="resnet50", slo_ms=69)
    platform.deploy("classify", configs=[(12, 0.4)] * 4)
    report = platform.run_workload("classify", rps=120, duration=30.0)
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
    if name in {"FaSTGShare", "RunReport"}:
        from repro import platform as _platform

        return getattr(_platform, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
