"""Engine firing order against a reference, WallClock monotonicity, driver pacing."""

from __future__ import annotations

import asyncio
import heapq
import itertools
import math
import random

import pytest

from repro.serve import EngineDriver
from repro.sim import Engine, WallClock
from repro.sim.errors import Interrupt, ScheduleInPastError, SimulationError
from repro.sim.events import AnyOf, Timeout
from repro.sim.process import Process


# -- Engine: the firing order must be indistinguishable from one plain heap --


class _ReferenceEngine:
    """The firing-order spec: one plain ``heapq`` of ``(time, seq)`` entries.

    No lane, no compaction, no dead-entry accounting — every callback,
    zero-delay or not, is one heap entry, and cancellation blanks it.  Every
    process resume is deferred through the heap (no inline tail resumes).
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[list] = []
        self._seq = itertools.count()
        self._stopped = False
        self.schedules = 0

    def schedule(self, delay: float, callback, *args) -> "_ReferenceHandle":
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback, *args) -> "_ReferenceHandle":
        assert time >= self.now
        self.schedules += 1
        entry = [time, next(self._seq), callback, args]
        heapq.heappush(self._heap, entry)
        return _ReferenceHandle(entry)

    def _at_tail(self) -> bool:
        return False

    def step(self) -> bool:
        while self._heap:
            time, _, callback, args = heapq.heappop(self._heap)
            if callback is None:
                continue
            self.now = time
            callback(*args)
            return True
        return False

    def run(self, until: float | None = None) -> float:
        self._stopped = False
        heap = self._heap
        while not self._stopped and heap:
            if heap[0][2] is None:
                heapq.heappop(heap)
            elif until is not None and heap[0][0] > until:
                break
            else:
                self.step()
        if until is not None and not self._stopped:
            self.now = max(self.now, until)
        return self.now

    def stop(self) -> None:
        self._stopped = True


class _ReferenceHandle:
    def __init__(self, entry: list) -> None:
        self._entry = entry

    def cancel(self) -> None:
        self._entry[2] = None


class _CountingEngine(Engine):
    """The production engine, counting its schedules."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed=seed)
        self.schedules = 0

    def schedule_at(self, time: float, callback, *args):
        self.schedules += 1
        return super().schedule_at(time, callback, *args)


def _randomized_firing_log(engine, seed: int, processes: bool = False) -> list[tuple[float, str]]:
    """Drive a randomized schedule/cancel/stop workload; return the firing
    order, with the clock after every ``run``/``step`` boundary.

    ``processes`` adds coroutine processes that sleep on bare delays (zero
    or positive), wait on timeouts — alone, shared with other waiters
    directly or through ``AnyOf``, already fired — or join processes, spawn
    children, and take interrupts thrown into them from callbacks, mid-sleep
    included (logged as ``!z``)."""
    rng = random.Random(seed)
    log: list[tuple[float, str]] = []
    handles = []
    live: list[Process] = []
    shared: list[Timeout] = []

    def delay() -> float:
        return 0.0 if rng.random() < 0.25 else round(rng.uniform(0.0, 3.0), 1)

    def body(tag: str):
        log.append((engine.now, f"{tag}^"))
        for step in range(rng.randint(1, 5)):
            choice = rng.random()
            sleeping = choice < 0.3
            try:
                if sleeping:
                    yield delay()
                elif choice < 0.55:
                    timeout = Timeout(engine, delay())
                    shared.append(timeout)
                    yield timeout
                elif choice < 0.7:
                    timeout = Timeout(engine, delay())
                    shared.append(timeout)
                    yield AnyOf(engine, [timeout, Timeout(engine, delay())])
                elif choice < 0.88 and shared:
                    # Often still pending (a second subscriber), sometimes
                    # already fired (resumes at once, deferred).
                    yield shared[rng.randrange(len(shared))]
                elif live:
                    yield live[rng.randrange(len(live))]
                else:
                    yield Timeout(engine, delay())
            except Interrupt:
                log.append((engine.now, f"{tag}!{'z' if sleeping else ''}{step}"))
                if rng.random() < 0.3:
                    raise
            log.append((engine.now, f"{tag}.{step}"))
            if rng.random() < 0.15:
                spawn(f"{tag}c{step}")  # starts from the lane: orders visibly
            if rng.random() < 0.02:
                log.append((engine.now, "stop"))
                engine.stop()

    def spawn(tag: str) -> None:
        live.append(Process(engine, body(tag), tag))

    def fire(tag: str) -> None:
        log.append((engine.now, tag))
        if processes:
            if rng.random() < 0.2:
                spawn(f"{tag}p")
            alive = [process for process in live if process.is_alive]
            if alive and rng.random() < 0.2:
                alive[rng.randrange(len(alive))].interrupt(tag)
        # Callbacks re-schedule and cancel mid-run, like real subsystems do:
        # zero-delay follow-ups (process resumes, event settles) as well as
        # future timers.  Expected children per firing stay below one.
        if rng.random() < 0.3:
            handles.append(engine.schedule(0.0, fire, f"{tag}0"))
        if rng.random() < 0.1:
            handles.append(engine.schedule_at(engine.now, fire, f"{tag}@"))
        if rng.random() < 0.3:
            handles.append(engine.schedule(rng.uniform(0.0, 5.0), fire, f"{tag}+"))
        if handles and rng.random() < 0.15:
            handles.pop().cancel()  # usually the zero-delay entry just queued
        if handles and rng.random() < 0.3:
            handles.pop(rng.randrange(len(handles))).cancel()
        if rng.random() < 0.02:
            log.append((engine.now, "stop"))
            engine.stop()

    for index in range(200):
        # One decimal place: plenty of same-time ties between timers.
        handles.append(engine.schedule_at(round(rng.uniform(0.0, 50.0), 1), fire, f"t{index}"))
    if processes:
        for index in range(20):
            spawn(f"p{index}")
    for _ in range(40):
        handles.pop(rng.randrange(len(handles))).cancel()
    for until in (10.0, 20.5, 20.5, 30.0, 41.3):
        engine.run(until=max(until, engine.now))
        log.append((engine.now, "run-until"))
        for _ in range(3):
            engine.step()
            log.append((engine.now, "step"))
    while True:
        engine.run()
        log.append((engine.now, "run"))
        if not engine.step():
            break
    return log


@pytest.mark.parametrize("seed", [0, 7, 1234])
def test_engine_reproduces_reference_firing_order(seed: int):
    reference = _randomized_firing_log(_ReferenceEngine(), seed)
    assert _randomized_firing_log(Engine(seed=seed), seed) == reference
    fired = [tag for _, tag in reference if tag.startswith("t")]
    assert len(fired) > 100  # the workload actually exercised the heap
    assert any(tag.endswith("0") for tag in fired)  # ... and the zero-delay lane
    assert any(tag == "stop" for _, tag in reference)  # stop() split a run


@pytest.mark.parametrize("seed", [0, 7, 1234, 99])
def test_inline_tail_resumes_keep_the_firing_order(seed: int):
    """Processes resumed inline when a sleep's wake fires as the last thing
    due (see ``repro.sim.engine``) run exactly where the always-deferring
    reference resumes them, and an interrupt thrown mid-sleep lands where
    it does there."""
    reference_engine = _ReferenceEngine()
    reference = _randomized_firing_log(reference_engine, seed, processes=True)
    engine = _CountingEngine(seed)
    assert _randomized_firing_log(engine, seed, processes=True) == reference
    tags = [tag for _, tag in reference]
    assert sum(".0" in tag for tag in tags) > 50  # processes resumed ...
    assert any("!" in tag for tag in tags)  # ... and were interrupted,
    assert any("!z" in tag for tag in tags)  # ... some mid-sleep
    assert engine.schedules < reference_engine.schedules  # some resumed inline


def _finished(body) -> Process:
    engine = Engine()
    process = engine.process(body(engine))
    engine.run()
    return process


@pytest.mark.parametrize("sleep", [True, False], ids=["bare-delay", "timeout"])
def test_negative_delay_fails_the_process(sleep: bool):
    def body(engine):
        yield -0.5 if sleep else engine.timeout(-0.5)

    process = _finished(body)
    assert process.failed and isinstance(process.value, ScheduleInPastError)


def test_nan_delay_fails_the_process():
    def body(engine):
        yield math.nan

    process = _finished(body)
    assert process.failed and type(process.value) is SimulationError


def test_bad_delay_is_raised_at_the_yield():
    def body(engine):
        try:
            yield -1.0
        except ScheduleInPastError:
            pass
        yield 0.25
        return engine.now

    process = _finished(body)
    assert process.ok and process.value == 0.25


@pytest.mark.parametrize("target", ["soon", 3, None])
def test_non_number_yield_fails_with_type_error(target):
    def body(engine):
        yield target

    process = _finished(body)
    assert process.failed and isinstance(process.value, TypeError)
    assert "an Event (Timeout, Store.get(), ...) or a delay" in str(process.value)


def test_interrupted_sleep_cancels_nothing_and_its_wake_goes_stale():
    """An interrupt mid-sleep leaves the wake queued (no cancel, so the heap
    sequence is the one a Timeout's would be) and the wake resumes nothing."""
    engine = Engine()
    log = []

    def body():
        try:
            yield 5.0
        except Interrupt:
            log.append(("interrupted", engine.now))
        yield 1.0
        log.append(("woke", engine.now))

    process = engine.process(body())
    engine.schedule(2.0, process.interrupt)
    engine.run()
    assert log == [("interrupted", 2.0), ("woke", 3.0)]
    assert engine._dead == 0
    assert engine.now == 5.0  # the stale wake still fired, as a Timeout would


def _resume_times(sleep, script) -> list[tuple[str, float]]:
    """Run the interrupt ``script`` on a process whose waits are
    ``sleep(engine, delay)``; return when each wait ended and how."""
    engine = Engine()
    log: list[tuple[str, float]] = []
    gate = engine.event("gate")

    def waits():
        for delay in (5.0, 1.0, gate, 10.0, 3.0):
            try:
                yield delay if delay is gate else sleep(engine, delay)
                log.append(("woke", engine.now))
            except Interrupt:
                log.append(("interrupted", engine.now))

    process = engine.process(waits())
    script(engine, process)
    engine.schedule(30.0, gate.succeed)
    engine.run()
    return log


def _interrupt_before_first_step(engine, process):
    process.interrupt()


def _two_pending_interrupts(engine, process):
    engine.schedule(2.0, process.interrupt)
    engine.schedule(2.0, process.interrupt)


def _interrupt_mid_sleep(engine, process):
    engine.schedule(35.0, process.interrupt)  # cuts the 10.0 sleep after the gate


_INTERRUPT_SCRIPTS = [
    _interrupt_before_first_step,
    _two_pending_interrupts,
    _interrupt_mid_sleep,
]


@pytest.mark.parametrize("script", _INTERRUPT_SCRIPTS, ids=lambda s: s.__name__.strip("_"))
def test_interrupted_sleeps_resume_when_timeouts_would(script):
    """A sleep cut short by an interrupt, however the interrupt and the next
    sleeps interleave, never wakes a later wait: bare delays resume at the
    times the same script with Timeouts does."""
    bare = _resume_times(lambda engine, delay: delay, script)
    timed = _resume_times(lambda engine, delay: engine.timeout(delay), script)
    assert bare == timed
    assert any(kind == "interrupted" for kind, _ in timed)


def test_interrupt_abandons_a_timeout_for_a_bare_sleep():
    """An interrupt delivered on a Timeout started after the interrupt was
    raised abandons it, so the Timeout cannot end the bare sleep after it."""
    engine = Engine()
    log = []

    def body():
        try:
            yield engine.timeout(5.0)
        except Interrupt:
            log.append(("interrupted", engine.now))
        yield 1.0
        log.append(("woke", engine.now))
        yield 10.0
        log.append(("woke", engine.now))

    process = engine.process(body())
    process.interrupt()
    engine.run()
    assert log == [("interrupted", 0.0), ("woke", 1.0), ("woke", 11.0)]


# -- WallClock: anchoring, monotonicity under a jittering source --------------


def test_wallclock_reads_origin_until_started():
    clock = WallClock(time_fn=lambda: 42.0)
    assert not clock.started
    assert clock.now() == 0.0
    clock.start(origin=17.0)
    assert clock.started
    assert clock.now() == pytest.approx(17.0)


def test_wallclock_anchors_elapsed_time_at_origin():
    ticks = iter([100.0, 100.0, 101.5, 104.0])
    clock = WallClock(time_fn=lambda: next(ticks))
    clock.start(origin=10.0)  # consumes the epoch reading
    assert clock.now() == pytest.approx(10.0)
    assert clock.now() == pytest.approx(11.5)
    assert clock.now() == pytest.approx(14.0)


def test_wallclock_never_reads_backwards():
    jitter = iter([0.0, 1.0, 0.25, 0.5, 2.0])  # source jumps backwards twice
    clock = WallClock(time_fn=lambda: next(jitter))
    clock.start(origin=5.0)
    readings = [clock.now() for _ in range(4)]
    assert readings == pytest.approx([6.0, 6.0, 6.0, 7.0])
    assert readings == sorted(readings)


def test_wallclock_start_twice_raises():
    clock = WallClock(time_fn=lambda: 0.0)
    clock.start()
    with pytest.raises(RuntimeError, match="already started"):
        clock.start()


# -- on_schedule hook: the driver's wakeup signal ------------------------------


def test_on_schedule_hook_sees_every_new_timer():
    engine = Engine()
    seen: list[float] = []
    engine.on_schedule = seen.append
    engine.schedule_at(2.0, lambda: None)
    engine.schedule(1.0, lambda: None)
    assert seen == [2.0, 1.0]
    engine.on_schedule = None
    engine.schedule_at(9.0, lambda: None)
    assert seen == [2.0, 1.0]


# -- EngineDriver: wall pacing on asyncio --------------------------------------


def _wall_engine(tick_s: float = 0.02) -> tuple[Engine, EngineDriver]:
    engine = Engine()
    clock = WallClock()
    clock.start(origin=engine.now)
    return engine, EngineDriver(engine, clock, tick_s=tick_s)


def test_driver_rejects_bad_tick():
    engine = Engine()
    clock = WallClock()
    clock.start()
    with pytest.raises(ValueError, match="tick_s"):
        EngineDriver(engine, clock, tick_s=0.0)


def test_driver_fires_timers_at_their_wall_instant():
    async def scenario() -> None:
        engine, driver = _wall_engine()
        fired = asyncio.get_running_loop().create_future()
        engine.schedule(0.05, lambda: fired.set_result(engine.now))
        driver.start()
        with pytest.raises(RuntimeError, match="already started"):
            driver.start()
        when = await asyncio.wait_for(fired, timeout=2.0)
        assert when >= 0.05
        await driver.stop()
        assert not driver.running

    asyncio.run(scenario())


def test_driver_call_stamps_work_at_wall_now_and_wakes_loop():
    async def scenario() -> None:
        engine, driver = _wall_engine(tick_s=5.0)  # idle heartbeat far away
        driver.start()
        await asyncio.sleep(0.05)
        fired = asyncio.get_running_loop().create_future()

        def inject() -> float:
            engine.schedule(0.01, lambda: fired.set_result(engine.now))
            return engine.now

        stamped = driver.call(inject)
        assert stamped >= 0.05  # advanced to wall now before running fn
        # The wakeup must beat the 5 s heartbeat by a wide margin.
        await asyncio.wait_for(fired, timeout=1.0)
        await driver.stop()

    asyncio.run(scenario())


def test_driver_stop_is_prompt_and_cancel_safe_while_idle():
    async def scenario() -> None:
        engine, driver = _wall_engine(tick_s=10.0)  # would sleep ~10 s idle
        driver.start()
        await asyncio.sleep(0.02)
        assert driver.running
        await asyncio.wait_for(driver.stop(), timeout=1.0)
        assert not driver.running
        assert engine.on_schedule is None  # hook detached on stop

    asyncio.run(scenario())


def test_driver_call_spawning_a_process_runs_it_on_the_next_advance():
    """A process spawned inside ``call`` starts at ``engine.now`` from the
    zero-delay lane: ``peek`` reports it (so the pacing loop does not sleep
    until the next future timer) and the next advance runs it."""
    wall = [100.0]
    engine = Engine()
    clock = WallClock(time_fn=lambda: wall[0])
    clock.start(origin=engine.now)
    driver = EngineDriver(engine, clock, tick_s=10.0)
    fired = []
    engine.schedule(5.0, fired.append, "timer")
    started = []

    def body():
        started.append(engine.now)
        yield engine.timeout(0.0)

    def spawn() -> float:
        engine.process(body())
        return engine.now

    wall[0] += 1.0
    stamped = driver.call(spawn)
    assert stamped == pytest.approx(1.0)
    assert started == []  # processes start on the next engine step
    assert engine.peek() == engine.now == stamped
    wall[0] += 0.25
    driver.advance()
    assert started == [stamped]
    assert fired == []
    assert engine.now == pytest.approx(1.25)
