"""Load generation: open-loop (k6-like) and closed-loop (Locust-like).

The profiler saturates a single pod with a closed-loop client (concurrency
keeps the pod always busy — the paper's "AutomaticLoadTest"); the macro
experiments drive the gateway open-loop with a workload's arrival process.
"""

from __future__ import annotations

import typing as _t

from repro.faas.gateway import Gateway
from repro.faas.workload import Workload

if _t.TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.sim.engine import Engine
    from repro.sim.process import Process


class OpenLoopGenerator:
    """Fires requests at a workload's arrival times regardless of responses."""

    def __init__(
        self,
        engine: "Engine",
        gateway: Gateway,
        function: str,
        workload: Workload,
        rng: "np.random.Generator | None" = None,
    ):
        self.engine = engine
        self.gateway = gateway
        self.function = function
        self.workload = workload
        self.rng = rng if rng is not None else engine.rng.stream(f"loadgen.{function}")
        self.proc: "Process" = engine.process(self._run(), name=f"loadgen:{function}")

    def _run(self):
        start = self.engine.now
        last = 0.0
        for t in self.workload.arrival_times(self.rng):
            yield t - last
            last = t
            self.gateway.submit(self.function)
        # Park until the nominal end so joiners observe the full horizon.
        remaining = (start + self.workload.duration) - self.engine.now
        if remaining > 0:
            yield remaining


class ClosedLoopClient:
    """``concurrency`` virtual users in tight submit→wait loops."""

    def __init__(
        self,
        engine: "Engine",
        gateway: Gateway,
        function: str,
        concurrency: int = 4,
        duration: float | None = None,
    ):
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.engine = engine
        self.gateway = gateway
        self.function = function
        self.duration = duration
        self.completed = 0
        self.procs: list["Process"] = [
            engine.process(self._user(), name=f"vu:{function}:{i}") for i in range(concurrency)
        ]

    def _user(self):
        start = self.engine.now
        while self.duration is None or self.engine.now - start < self.duration:
            done = self.engine.event("closed-loop-done")
            self.gateway.submit(self.function, done_event=done)
            yield done
            self.completed += 1

    def stop(self) -> None:
        for proc in self.procs:
            if proc.is_alive:
                proc.interrupt("load test over")
