"""The live serving front: asyncio HTTP gateway over the unmodified control plane.

``python -m repro serve SCENARIO.json`` deploys the scenario's control
plane exactly as a simulation would (same autoscaler, scheduler, gateway,
memory tier — deployment and warm-up run in pure virtual time), then swaps
the engine's :class:`~repro.sim.clock.SimClock` for a
:class:`~repro.sim.clock.WallClock` and serves real HTTP traffic:

* ``POST /function/{name}`` — invoke: injects a gateway submission at the
  wall arrival instant and awaits its completion event, bounded by the
  per-request deadline (``504`` past it).
* ``GET /healthz`` — liveness + mode/draining flags.
* ``GET /stats`` — engine time, per-function submitted/pending counters,
  connection and in-flight gauges.
* ``GET /telemetry/stream`` — live NDJSON feed of the PR-8 telemetry hub
  (requires telemetry enabled; ``409`` otherwise).
* ``POST /drain`` — graceful drain: stop accepting invokes, wait for
  in-flight requests, stop the autoscaler, aggregate the **same
  ScenarioReport the DES path produces** (``mode: "live"``) and return it;
  the server then shuts down so ``repro serve`` exits 0.
* ``GET /report`` — the drained report (``409`` until drained).

Connections beyond ``max_connections`` are refused with ``503``.  The
measured window opens at serve start (``measurement.warmup_s`` is a
simulation-only knob and is ignored live; ``drain_s`` still pads the
window close so in-flight simulated work lands in the report).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import typing as _t

from repro.k8s.objects import set_transition_observer
from repro.scenario.report import ScenarioReport
from repro.scenario.runner import (
    ControlPlane,
    WindowCounters,
    aggregate_report,
    build_platform,
    placement_state,
    prepare_control_plane,
    transition_observer,
)
from repro.scenario.spec import Scenario
from repro.serve.driver import EngineDriver
from repro.serve.http import (
    HttpProtocolError,
    HttpRequest,
    json_response,
    read_request,
    response_bytes,
)
from repro.sim.clock import WallClock


class ServeError(RuntimeError):
    """Fatal serving-subsystem error (bind failure, double start…)."""


@dataclasses.dataclass(slots=True)
class ServeConfig:
    """Tunables of the live HTTP front."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: concurrent-connection cap; excess connections get an immediate 503.
    max_connections: int = 64
    #: per-request completion deadline (seconds); a 504 past it.
    deadline_s: float = 30.0
    #: how long a drain waits for in-flight invokes before forcing the cut.
    drain_timeout_s: float = 30.0
    #: driver idle heartbeat (see :class:`~repro.serve.driver.EngineDriver`).
    tick_s: float = 0.25


class LiveServer:
    """One scenario's control plane behind a wall-clock asyncio gateway."""

    def __init__(self, scenario: Scenario, config: ServeConfig | None = None, quick: bool = False):
        if quick:
            scenario = scenario.quick()
        self.scenario = scenario
        self.config = config or ServeConfig()
        self.quick = quick
        self.report: ScenarioReport | None = None
        self._report_payload: dict | None = None
        self._plane: ControlPlane | None = None
        self._driver: EngineDriver | None = None
        self._server: asyncio.Server | None = None
        self._observing = False
        self._functions: frozenset[str] = frozenset(f.name for f in scenario.functions)
        self._t0 = 0.0
        self._samples: list[tuple[float, int, dict[str, float]]] = []
        self._sample_handle = None
        self._before = WindowCounters()
        self._connections = 0
        self._in_flight = 0
        self._draining = False
        self._in_flight_done = asyncio.Event()
        self._done = asyncio.Event()
        self._drain_lock = asyncio.Lock()
        self._taps: set[asyncio.Queue] = set()

    # -- lifecycle ---------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` in tests)."""
        if self._server is None or not self._server.sockets:
            raise ServeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Deploy (virtual time), anchor the wall clock, bind the socket."""
        if self._plane is not None:
            raise ServeError("server already started")
        platform = build_platform(self.scenario)
        engine = platform.engine
        self._observing = self.scenario.measurement.telemetry
        if self._observing:
            engine.hub.enabled = True
            engine.hub.tap = self._fanout
            set_transition_observer(transition_observer(engine))
        plane = prepare_control_plane(self.scenario, platform)
        self._plane = plane

        t_start = engine.now
        plane.anchor_oracles(t_start)
        platform.cluster.reset_metrics()
        self._t0 = t_start
        self._before = WindowCounters.capture(platform, plane.scheduler)

        dt = self.scenario.measurement.sample_dt

        def sample() -> None:
            gpus, alloc = placement_state(platform)
            self._samples.append((engine.now, gpus, alloc))
            if not self._draining:
                self._sample_handle = engine.schedule(dt, sample)

        self._sample_handle = engine.schedule(dt, sample)

        clock = WallClock()
        engine.use_clock(clock)
        clock.start(origin=t_start)
        self._driver = EngineDriver(engine, clock, tick_s=self.config.tick_s)
        self._driver.start()
        try:
            self._server = await asyncio.start_server(
                self._handle, host=self.config.host, port=self.config.port
            )
        except OSError as exc:
            await self._driver.stop()
            raise ServeError(
                f"cannot bind {self.config.host}:{self.config.port}: {exc} "
                "(is another server already listening on that port?)"
            ) from exc

    async def serve_until_drained(self) -> ScenarioReport:
        """Block until a ``POST /drain`` completed; returns the live report."""
        if self._server is None:
            raise ServeError("server not started")
        await self._done.wait()
        assert self.report is not None
        return self.report

    async def aclose(self) -> None:
        """Tear the front down (idempotent; finalizes the report if needed)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.report is None and self._plane is not None:
            await self._finalize()
        elif self._driver is not None and self._driver.running:
            await self._driver.stop()
        if self._observing and self._plane is not None:
            set_transition_observer(None)
            self._plane.platform.engine.hub.tap = None
        self._broadcast(None)

    # -- request handling ---------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        if self._connections >= self.config.max_connections:
            writer.write(json_response(503, {"error": "connection limit reached"}))
            await self._close_writer(writer)
            return
        self._connections += 1
        shutdown_after = False
        try:
            try:
                request = await asyncio.wait_for(read_request(reader), timeout=30.0)
            except (
                HttpProtocolError,
                asyncio.TimeoutError,
                ConnectionError,
                asyncio.IncompleteReadError,
            ) as exc:
                writer.write(json_response(400, {"error": f"bad request: {exc}"}))
                return
            if request is None:
                return
            if request.method == "GET" and request.path == "/telemetry/stream":
                await self._stream_telemetry(writer)
                return
            status, payload, shutdown_after = await self._route(request)
            writer.write(json_response(status, payload))
            await writer.drain()
        except asyncio.CancelledError:
            raise
        except ConnectionError:
            pass  # client went away mid-exchange
        except Exception as exc:  # a handler bug must not kill the server
            try:
                writer.write(json_response(500, {"error": f"internal error: {exc}"}))
            except ConnectionError:
                pass
        finally:
            self._connections -= 1
            await self._close_writer(writer)
            if shutdown_after:
                self._done.set()

    async def _route(self, request: HttpRequest) -> tuple[int, dict, bool]:
        """Dispatch one request → (status, JSON payload, shutdown-after)."""
        method, path = request.method, request.path.split("?", 1)[0]
        if method == "GET" and path == "/healthz":
            return (
                200,
                {
                    "status": "ok",
                    "scenario": self.scenario.name,
                    "mode": "live",
                    "draining": self._draining,
                },
                False,
            )
        if method == "GET" and path == "/stats":
            return 200, self._stats(), False
        if method == "POST" and path.startswith("/function/"):
            return await self._invoke(path[len("/function/"):])
        if method == "POST" and path == "/drain":
            payload = await self._drain()
            return 200, payload, True
        if method == "GET" and path == "/report":
            if self._report_payload is None:
                return 409, {"error": "not drained yet — POST /drain first"}, False
            return 200, self._report_payload, False
        return 404, {"error": f"no route {method} {path}"}, False

    def _stats(self) -> dict:
        assert self._plane is not None and self._driver is not None
        platform = self._plane.platform
        engine = platform.engine
        self._driver.advance()
        functions = {}
        for name in sorted(self._functions):
            functions[name] = {
                "submitted": int(platform.gateway.submitted[name])
                - self._before.submitted.get(name, 0),
                "pending": platform.gateway.pending_count(name),
            }
        stats = {
            "clock": engine.clock.mode,
            "time_s": engine.now - self._t0,
            "horizon_s": self._plane.horizon,
            "draining": self._draining,
            "connections": self._connections,
            "in_flight": self._in_flight,
            "functions": functions,
        }
        # Live fragmentation gauges (and migration counts when the
        # defragmenter is running), computed from the placement state the
        # moment /stats is answered.
        scheduler = self._plane.scheduler
        if scheduler is not None:
            stats["fragmentation"] = {
                "cluster": scheduler.placement.cluster_fragmentation(),
                "nodes": scheduler.placement.fragmentation_by_node(),
            }
        migrator = platform.migrator
        if migrator is not None:
            stats["migrations"] = {
                "started": migrator.started,
                "completed": migrator.completed,
                "aborted": migrator.aborted,
                "in_flight": migrator.in_flight,
            }
        return stats

    async def _invoke(self, name: str) -> tuple[int, dict, bool]:
        if self._draining:
            return 503, {"error": "draining — no new invocations"}, False
        if name not in self._functions:
            error = {"error": f"unknown function {name!r}", "known": sorted(self._functions)}
            return 404, error, False
        assert self._plane is not None and self._driver is not None
        engine = self._plane.platform.engine
        gateway = self._plane.platform.gateway
        future: asyncio.Future = asyncio.get_running_loop().create_future()

        def _submit():
            done = engine.event(f"http.{name}")

            def _resolve(event) -> None:
                if not future.done():
                    future.set_result(event.value)

            done.add_callback(_resolve)
            return gateway.submit(name, done_event=done)

        self._in_flight += 1
        try:
            submitted = self._driver.call(_submit)
            try:
                completed = await asyncio.wait_for(future, timeout=self.config.deadline_s)
            except asyncio.TimeoutError:
                return (
                    504,
                    {
                        "error": "deadline exceeded",
                        "function": name,
                        "request_id": submitted.request_id,
                        "deadline_s": self.config.deadline_s,
                    },
                    False,
                )
            return (
                200,
                {
                    "function": name,
                    "request_id": completed.request_id,
                    "replica": completed.replica_id,
                    "latency_ms": 1000.0 * completed.latency,
                    "queue_wait_ms": 1000.0 * completed.queue_wait,
                },
                False,
            )
        finally:
            self._in_flight -= 1
            if self._draining and self._in_flight == 0:
                self._in_flight_done.set()

    # -- drain / report ------------------------------------------------------
    async def _drain(self) -> dict:
        async with self._drain_lock:
            if self._report_payload is not None:
                return self._report_payload
            self._draining = True
            if self._in_flight == 0:
                self._in_flight_done.set()
            try:
                await asyncio.wait_for(
                    self._in_flight_done.wait(), timeout=self.config.drain_timeout_s
                )
            except asyncio.TimeoutError:
                pass  # forced cut: stragglers fall outside the window
            await self._finalize()
            assert self._report_payload is not None
            return self._report_payload

    async def _finalize(self) -> None:
        """Close the measured window and aggregate the live ScenarioReport."""
        assert self._plane is not None and self._driver is not None
        self._draining = True
        plane = self._plane
        engine = plane.platform.engine

        def _cut() -> None:
            if self._sample_handle is not None:
                self._sample_handle.cancel()
            if plane.scheduler is not None:
                plane.scheduler.stop()

        self._driver.call(_cut)
        # Pad the close like the DES path does, so simulated work already on
        # the devices lands inside the window instead of being truncated.
        drain_s = self.scenario.measurement.drain_s
        if drain_s > 0:
            engine.run(until=engine.now + drain_s)
        await self._driver.stop()
        end = engine.now
        self.report = aggregate_report(
            plane,
            quick=self.quick,
            t0=self._t0,
            end=end,
            samples=self._samples,
            before=self._before,
            mode="live",
        )
        self._report_payload = self.report.to_dict()
        self._broadcast(None)

    # -- telemetry streaming -------------------------------------------------
    def _fanout(self, event) -> None:
        if not self._taps:
            return
        payload = event.to_dict()
        for queue in list(self._taps):
            try:
                queue.put_nowait(payload)
            except asyncio.QueueFull:
                pass  # slow consumer: drop rather than stall the engine

    def _broadcast(self, item) -> None:
        for queue in list(self._taps):
            try:
                queue.put_nowait(item)
            except asyncio.QueueFull:
                pass

    async def _stream_telemetry(self, writer: asyncio.StreamWriter) -> None:
        if not self._observing:
            error = "telemetry disabled — serve with --telemetry (or measurement.telemetry: true)"
            writer.write(json_response(409, {"error": error}))
            return
        queue: asyncio.Queue = asyncio.Queue(maxsize=4096)
        self._taps.add(queue)
        try:
            writer.write(response_bytes(200, content_type="application/x-ndjson", stream=True))
            await writer.drain()
            while True:
                item = await queue.get()
                if item is None:  # drained / shutting down
                    break
                writer.write((json.dumps(item, sort_keys=True) + "\n").encode("utf-8"))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away
        finally:
            self._taps.discard(queue)

    @staticmethod
    async def _close_writer(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def serve_scenario(
    scenario: Scenario,
    config: ServeConfig | None = None,
    quick: bool = False,
    on_ready: _t.Callable[["LiveServer"], None] | None = None,
) -> ScenarioReport:
    """Run the live server until drained; returns the live ScenarioReport."""
    server = LiveServer(scenario, config, quick=quick)
    await server.start()
    if on_ready is not None:
        on_ready(server)
    try:
        return await server.serve_until_drained()
    finally:
        await server.aclose()
