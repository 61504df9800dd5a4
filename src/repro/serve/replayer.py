"""``python -m repro replay`` — fire a committed trace at a live server.

The replayer reconstructs the *exact* arrival times the DES's open-loop
generator would produce — same scenario seed, same
``RngStreams(seed).stream("loadgen.<fn>")`` derivation, same
``Workload.arrival_times`` draw — so a live run is diffable request-for-
request against the simulation of the same scenario.  Client-side overload
behaviors the DES cannot express ride on top:

* **per-request timeouts** (``--timeout``),
* **capped exponential-backoff retries** (``--retries`` / ``--backoff`` /
  ``--backoff-cap``) on connection errors, timeouts, and 5xx,
* **hedged requests** (``--hedge``): a duplicate fired when the primary is
  still unanswered after the hedge delay; first response wins.

When all arrivals settle the replayer POSTs ``/drain``: the server closes
the measured window, aggregates the identical ``ScenarioReport`` schema the
DES path writes (``mode: "live"``), and the replayer saves it with a
``client`` block of client-side counters appended.

Mid-replay server death (connection refused/reset with a failed health
probe) aborts immediately with a clear error — no hangs.
"""

from __future__ import annotations

import asyncio
import dataclasses
import typing as _t

from repro.scenario.runner import require_open_loop, resolve_workload
from repro.scenario.spec import Scenario
from repro.serve import http
from repro.sim.rng import RngStreams


class ReplayError(RuntimeError):
    """Fatal replay failure (unreachable server, mid-replay death…)."""


@dataclasses.dataclass(slots=True)
class ReplayConfig:
    """Client knobs for one replay."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: per-request response deadline, seconds.
    timeout_s: float = 10.0
    #: extra attempts after the first (connection errors / timeouts / 5xx).
    retries: int = 2
    #: initial retry backoff, doubled per attempt, capped at backoff_cap_s.
    backoff_s: float = 0.1
    backoff_cap_s: float = 2.0
    #: fire a duplicate request if the primary is silent this long (None = off).
    hedge_s: float | None = None
    #: arrival-time compression factor (2.0 = replay twice as fast).  Values
    #: other than 1.0 distort comparability against the DES run.
    speed: float = 1.0
    #: how long to wait for /drain to aggregate the report.
    drain_timeout_s: float = 120.0


@dataclasses.dataclass(slots=True)
class ReplayStats:
    """Client-side counters for one replay."""

    submitted: int = 0
    ok: int = 0
    timeouts: int = 0
    rejected: int = 0  # non-200 responses (503 draining, 504 deadline…)
    conn_errors: int = 0
    retries: int = 0
    hedged: int = 0
    hedge_wins: int = 0
    abandoned: int = 0  # skipped because the server was declared dead
    latency_ms_sum: float = 0.0

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        latency_sum = data.pop("latency_ms_sum")
        data["latency_ms_mean"] = latency_sum / self.ok if self.ok else 0.0
        return data


def arrival_schedule(scenario: Scenario) -> dict[str, list[float]]:
    """Per-function arrival offsets, identical to the DES open-loop draw."""
    streams = RngStreams(scenario.seed)
    trace_cache: dict[str, _t.Any] = {}
    schedule: dict[str, list[float]] = {}
    for fn in scenario.functions:
        workload, _ = resolve_workload(fn, scenario.seed, trace_cache)
        rng = streams.stream(f"loadgen.{fn.name}")
        schedule[fn.name] = [float(t) for t in workload.arrival_times(rng)]
    return schedule


class Replayer:
    """Drives one replay against a live server."""

    def __init__(self, scenario: Scenario, config: ReplayConfig | None = None,
                 quick: bool = False):
        if quick:
            scenario = scenario.quick()
        require_open_loop(scenario)
        self.scenario = scenario
        self.config = config or ReplayConfig()
        self.stats = ReplayStats()
        self._dead = asyncio.Event()
        self._death_reason = ""

    # -- wire helpers ------------------------------------------------------
    async def _post(self, path: str, timeout: float | None = None) -> http.HttpResponse:
        return await http.request(
            self.config.host, self.config.port, "POST", path,
            timeout=timeout if timeout is not None else self.config.timeout_s,
        )

    async def _probe(self) -> bool:
        """Is the server still answering /healthz?"""
        try:
            response = await http.request(
                self.config.host, self.config.port, "GET", "/healthz", timeout=2.0
            )
            return response.status == 200
        except (OSError, asyncio.TimeoutError, http.HttpProtocolError):
            return False

    def _declare_dead(self, reason: str) -> None:
        if not self._dead.is_set():
            self._death_reason = reason
            self._dead.set()

    # -- one request -------------------------------------------------------
    async def _attempt(self, path: str) -> http.HttpResponse:
        """One attempt, optionally hedged: first settled response wins."""
        hedge_s = self.config.hedge_s
        primary = asyncio.create_task(self._post(path))
        if hedge_s is None:
            return await primary
        done, _ = await asyncio.wait({primary}, timeout=hedge_s)
        if done:
            return primary.result()
        self.stats.hedged += 1
        backup = asyncio.create_task(self._post(path))
        pending: set[asyncio.Task] = {primary, backup}
        last_exc: BaseException | None = None
        try:
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    exc = task.exception()
                    if exc is None:
                        if task is backup:
                            self.stats.hedge_wins += 1
                        return task.result()
                    last_exc = exc
            assert last_exc is not None
            raise last_exc
        finally:
            for task in pending:
                task.cancel()

    async def _fire(self, function: str, offset: float, start: float) -> None:
        """One scheduled arrival: sleep until due, then attempt with retries."""
        loop = asyncio.get_running_loop()
        due = start + offset / self.config.speed
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        if self._dead.is_set():
            self.stats.abandoned += 1
            return
        self.stats.submitted += 1
        path = f"/function/{function}"
        backoff = self.config.backoff_s
        for attempt in range(self.config.retries + 1):
            if self._dead.is_set():
                self.stats.abandoned += 1
                return
            retryable = False
            try:
                response = await self._attempt(path)
            except asyncio.TimeoutError:
                self.stats.timeouts += 1
                retryable = True
            except (OSError, http.HttpProtocolError, asyncio.IncompleteReadError) as exc:
                self.stats.conn_errors += 1
                if not await self._probe():
                    self._declare_dead(f"{type(exc).__name__}: {exc}")
                    return
                retryable = True
            else:
                if response.status == 200:
                    self.stats.ok += 1
                    body = response.json() or {}
                    self.stats.latency_ms_sum += float(body.get("latency_ms", 0.0))
                    return
                self.stats.rejected += 1
                if response.status not in (500, 503, 504):
                    return  # 404 etc: retrying cannot help
                retryable = True
            if not retryable or attempt >= self.config.retries:
                return
            self.stats.retries += 1
            await asyncio.sleep(min(backoff, self.config.backoff_cap_s))
            backoff *= 2.0

    # -- the replay --------------------------------------------------------
    async def run(self) -> dict:
        """Replay every arrival, drain the server, return the report payload."""
        if self.config.speed <= 0:
            raise ReplayError(f"--speed must be > 0, got {self.config.speed}")
        schedule = arrival_schedule(self.scenario)
        total = sum(len(times) for times in schedule.values())
        if not await self._probe():
            raise ReplayError(
                f"no live server answering at "
                f"http://{self.config.host}:{self.config.port}/healthz — "
                "start one with: python -m repro serve SCENARIO.json"
            )
        start = asyncio.get_running_loop().time()
        tasks = [
            asyncio.create_task(self._fire(name, offset, start))
            for name, times in sorted(schedule.items())
            for offset in times
        ]
        try:
            await asyncio.gather(*tasks)
        finally:
            for task in tasks:
                task.cancel()
        if self._dead.is_set():
            raise ReplayError(
                f"server died mid-replay ({self._death_reason}); "
                f"{self.stats.ok}/{total} requests had completed"
            )
        try:
            response = await self._post("/drain", timeout=self.config.drain_timeout_s)
        except (OSError, asyncio.TimeoutError, http.HttpProtocolError) as exc:
            raise ReplayError(f"drain failed: {type(exc).__name__}: {exc}") from exc
        if response.status != 200:
            raise ReplayError(f"drain returned HTTP {response.status}")
        payload = response.json()
        if not isinstance(payload, dict) or payload.get("benchmark") != "scenario":
            raise ReplayError("drain did not return a ScenarioReport payload")
        payload["client"] = self.stats.to_dict()
        return payload


async def replay(scenario: Scenario, config: ReplayConfig | None = None,
                 quick: bool = False) -> dict:
    """Convenience wrapper: one :class:`Replayer` run."""
    return await Replayer(scenario, config, quick=quick).run()


def format_summary(payload: _t.Mapping) -> str:
    """Human-readable replay wrap-up (server window + client counters)."""
    totals = payload.get("totals", {})
    client = payload.get("client", {})
    lines = [
        f"Live replay of {payload.get('scenario', {}).get('name', '?')!r} "
        f"(mode={payload.get('mode', 'sim')}, quick={payload.get('quick')})",
        f"  server window: submitted {totals.get('submitted')}  "
        f"completed {totals.get('completed')}  p95 {totals.get('p95_ms', 0.0):.1f} ms  "
        f"violations {100 * totals.get('slo_violation_ratio', 0.0):.2f}%",
        f"  client: {client.get('ok', 0)}/{client.get('submitted', 0)} ok  "
        f"{client.get('timeouts', 0)} timeouts  {client.get('rejected', 0)} rejected  "
        f"{client.get('conn_errors', 0)} conn-errors  {client.get('retries', 0)} retries  "
        f"{client.get('hedged', 0)} hedged ({client.get('hedge_wins', 0)} wins)  "
        f"mean latency {client.get('latency_ms_mean', 0.0):.1f} ms",
    ]
    return "\n".join(lines)
