"""The CUDA Hook Library (paper §3.3.2, frontend side).

In the real system this is an ``LD_PRELOAD`` shim intercepting
``cuLaunchKernel`` and the synchronisation APIs.  Here it wraps the driver
facade with the same protocol:

* before launching a burst, ensure the pod holds a *valid* time token —
  requesting one from the FaST Backend and blocking until granted;
* insert a timing event before the sync call, measure the burst's GPU
  residency, and report it to the backend (``charge``);
* when the backend invalidates the token (window quota consumed), return it
  — freeing the pod's SM reservation — and re-request before the next burst;
* release the token at the end of a request so idle pods never pin SMs.

Without a backend (the racing and device-plugin baselines) the same hook
launches straight to the driver: no token, no charge, no release.

:meth:`CudaHookLibrary.run_plan` is the one generator frame of a request:
the token check, the launch and the charge run inline in it, and host gaps
are bare delays (see :mod:`repro.sim.process`), so a request's bursts and
gaps build no event beyond each burst's completion and each token grant.
"""

from __future__ import annotations

import typing as _t

from repro.gpu.driver import CudaContext, CudaDriver
from repro.gpu.kernels import InferencePlan
from repro.manager.backend import FaSTBackend
from repro.manager.tokens import TimeToken

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class CudaHookLibrary:
    """Per-pod interception layer between the inference task and the driver.

    ``backend=None`` leaves every launch unmediated: the device's
    capacity-sharing model alone arbitrates contention, which is exactly the
    unmanaged behaviour the paper's Fig. 1 measures.
    """

    def __init__(
        self,
        engine: "Engine",
        backend: FaSTBackend | None,
        driver: CudaDriver,
        ctx: CudaContext,
        pod_id: str,
    ):
        self.engine = engine
        self.backend = backend
        self.driver = driver
        self.ctx = ctx
        self.pod_id = pod_id
        self._token: TimeToken | None = None
        # -- accounting --
        self.token_wait_seconds = 0.0
        self.bursts_executed = 0

    def release(self) -> None:
        """Return the token (end of request / teardown)."""
        if self._token is not None:
            self.backend.release_token(self.pod_id)  # type: ignore[union-attr]
            self._token = None

    # -- intercepted execution ---------------------------------------------------
    def run_plan(self, plan: InferencePlan):
        """(generator) Execute a full inference plan, honouring host gaps;
        returns the summed GPU residency the bursts were charged with.

        The token is held across host gaps *within* a request (the process
        stays scheduled on the GPU) and released at the end.
        """
        backend = self.backend
        launch = self.driver.launch_burst
        pod_id = self.pod_id
        if plan.pre_gap > 0:
            yield plan.pre_gap
        gpu_residency = 0.0
        for duration, gap in plan.steps():
            if backend is not None:
                token = self._token
                if token is None or not token.valid:
                    if token is not None:
                        # Consumed token: return it (frees our SM share) first.
                        backend.release_token(pod_id)
                        self._token = None
                    wait_start = self.engine.now
                    self._token = yield backend.request_token(pod_id)
                    self.token_wait_seconds += self.engine.now - wait_start
            # CUDA timing event inserted before the synchronisation API:
            residency = yield launch(self.ctx, duration, plan.sm_activity)
            if backend is not None:
                backend.charge(pod_id, residency)
            self.bursts_executed += 1
            gpu_residency += residency
            if gap > 0:
                yield gap
        self.release()
        return gpu_residency
