"""Kubernetes-like cluster substrate.

The paper deploys on Kubernetes/OpenFaaS with custom CRDs; this package
models the pieces the architecture actually exercises:

* :mod:`repro.k8s.objects` — object model (metadata, FaSTPod spec with the
  paper's annotations, pod phases);
* :mod:`repro.k8s.node` — a GPU worker node: device + driver + MPS DaemonSet
  container + FaST Backend + model storage, with pod admission/eviction;
* :mod:`repro.k8s.cluster` — the cluster: node inventory and lookups;
* :mod:`repro.k8s.fastpod` — the FaSTPod CRD controller: replica sets with
  per-replica spatio-temporal resource configs, registering allocations with
  the scheduler and syncing them to the backend table.

The baseline modes need no allocator of their own: ``timeshare`` and
``exclusive`` deploys read each GPU's occupancy from the pods its node hosts
(:meth:`repro.platform.FaSTGShare.deploy`).
"""

from repro.k8s.cluster import Cluster
from repro.k8s.node import GPUNode
from repro.k8s.objects import ObjectMeta, Pod, PodPhase, PodSpec

__all__ = [
    "Cluster",
    "FaSTPodController",
    "GPUNode",
    "ObjectMeta",
    "Pod",
    "PodPhase",
    "PodSpec",
]


def __getattr__(name: str):
    # FaSTPodController pulls in the faas layer (replica runtime), which in
    # turn imports k8s.objects — export it lazily to break the import cycle.
    if name == "FaSTPodController":
        from repro.k8s.fastpod import FaSTPodController

        return FaSTPodController
    raise AttributeError(f"module 'repro.k8s' has no attribute {name!r}")
