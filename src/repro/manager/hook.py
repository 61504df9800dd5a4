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

    # -- token management ----------------------------------------------------
    def _ensure_token(self, backend: FaSTBackend):
        """(generator) Block until the pod holds a valid token."""
        if self._token is not None:
            if self._token.valid:
                return
            # Consumed token: return it (frees our SM share) before asking again.
            backend.release_token(self.pod_id)
            self._token = None
        wait_start = self.engine.now
        grant = backend.request_token(self.pod_id)
        token = yield grant
        self.token_wait_seconds += self.engine.now - wait_start
        self._token = token

    def release(self) -> None:
        """Return the token (end of request / teardown)."""
        if self._token is not None:
            _t.cast(FaSTBackend, self.backend).release_token(self.pod_id)
            self._token = None

    # -- intercepted execution ---------------------------------------------------
    def run_burst(self, duration: float, sm_activity: float):
        """(generator) Token-gated launch + timed sync of one kernel burst.

        Returns the measured GPU residency (wall-clock seconds the burst was
        resident, i.e. what the quota is charged with).
        """
        backend = self.backend
        if backend is not None:
            yield from self._ensure_token(backend)
        done = self.driver.launch_burst(self.ctx, duration, sm_activity)
        # CUDA timing event inserted before the synchronisation API:
        residency = yield done
        if backend is not None:
            backend.charge(self.pod_id, _t.cast(float, residency))
        self.bursts_executed += 1
        return residency

    def run_plan(self, plan: InferencePlan):
        """(generator) Execute a full inference plan, honouring host gaps.

        The token is held across host gaps *within* a request (the process
        stays scheduled on the GPU) and released at the end.
        """
        if plan.pre_gap > 0:
            yield self.engine.timeout(plan.pre_gap)
        gpu_residency = 0.0
        sm_activity = plan.sm_activity
        for duration, gap in plan.steps():
            residency = yield from self.run_burst(duration, sm_activity)
            gpu_residency += residency
            if gap > 0:
                yield self.engine.timeout(gap)
        self.release()
        return gpu_residency
