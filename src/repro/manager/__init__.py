"""FaST-Manager: the spatio-temporal GPU sharing manager (paper §3.3).

Frontend/backend architecture:

* the **frontend** (:class:`~repro.manager.frontend.FaSTFrontend`) lives in
  the function instance container: an MPS client pins the SM partition and a
  CUDA hook library (:class:`~repro.manager.hook.CudaHookLibrary`) intercepts
  driver calls, trading them for time tokens.  It is every sharing mode's
  container wiring: the unmanaged baselines (racing, device plugin) build it
  without an MPS server and without a backend, so launches go straight to
  the driver;
* the **backend** (:class:`~repro.manager.backend.FaSTBackend`) holds the
  per-pod resource table and runs the **multi-token scheduler**: filtering by
  remaining quota, a ready-function priority queue ordered by ``Q_miss``, and
  the SM Allocation Adapter that caps concurrently running partitions at
  ``SM_GLOBAL_LIMIT`` (100%).
"""

from repro.manager.adapter import SM_GLOBAL_LIMIT, SMAllocationAdapter
from repro.manager.backend import BackendError, FaSTBackend, PodEntry
from repro.manager.frontend import FaSTFrontend
from repro.manager.hook import CudaHookLibrary
from repro.manager.queue import ready_queue_order
from repro.manager.tokens import TimeToken

__all__ = [
    "BackendError",
    "CudaHookLibrary",
    "FaSTBackend",
    "FaSTFrontend",
    "PodEntry",
    "SMAllocationAdapter",
    "SM_GLOBAL_LIMIT",
    "TimeToken",
    "ready_queue_order",
]
