"""Differential test: lazy quota windows against the eager reference.

The production :class:`~repro.manager.backend.FaSTBackend` rolls its quota
window only while some row has used quota, with every backend created at one
instant sharing one rollover timer.  The reference
(:class:`reference_backend.EagerWindowBackend`) rolls every backend on its
own timer from creation on.  Identical call sequences — register, request,
charge, release, update, deregister, driven by a process at delays that
often land on window boundaries — must grant the same tokens in the same
order at the same instants, and read the same ``q_used`` at every step.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.manager import BackendError, FaSTBackend
from repro.sim import Engine
from tests.property.reference_backend import EagerWindowBackend

WINDOW = 0.1
PODS = ("a", "b", "c")
#: Backend calls, weighted towards the ones that move quota.
CALLS = ("register", "request", "request", "charge", "charge", "release", "update", "deregister")

#: Delays on a grid of the window (so calls land on boundaries) plus any.
delays = st.one_of(
    st.sampled_from([0.0, 0.0, 0.01, 0.025, 0.05, 0.1, 0.1, 0.2, 0.3]),
    st.floats(min_value=0.0, max_value=0.4, allow_nan=False),
)
charges = st.one_of(
    st.sampled_from([0.0, 0.005, 0.02, 0.05, 0.1, 0.25]),
    st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
)


@st.composite
def calls(draw):
    op = draw(st.sampled_from(CALLS))
    backend = draw(st.integers(0, 1))
    pod = draw(st.sampled_from(PODS))
    if op in ("register", "update"):
        request = draw(st.sampled_from([0.1, 0.2, 0.4, 0.6]))
        limit = min(1.0, request + draw(st.sampled_from([0.0, 0.2, 0.5])))
        args = (draw(st.sampled_from([10.0, 30.0, 50.0, 60.0, 100.0])), request, limit)
    elif op == "charge":
        args = (draw(charges),)
    else:
        args = ()
    return draw(delays), op, backend, pod, args


def replay(make_backend, steps) -> tuple[list, Engine]:
    """Run ``steps`` against two backends built on one window chain; return
    the observation log (grants, errors, every ``q_used`` reading)."""
    engine = Engine(seed=0)
    backends = [make_backend(engine, f"gpu{i}") for i in range(2)]
    log: list = []

    def observe(event, index, pod):
        log.append(("grant" if event.ok else "fail", engine.now, index, pod))

    def read_quotas():
        log.append(
            ("q_used", engine.now)
            + tuple(tuple((p, e.q_used) for p, e in b.entries.items()) for b in backends)
        )

    def drive():
        for delay, op, index, pod, args in steps:
            yield engine.timeout(delay)
            backend = backends[index]
            try:
                if op == "register":
                    backend.register(pod, *args)
                elif op == "request":
                    backend.request_token(pod).add_callback(
                        lambda event, index=index, pod=pod: observe(event, index, pod)
                    )
                elif op == "charge":
                    backend.charge(pod, *args)
                elif op == "release":
                    backend.release_token(pod)
                elif op == "update":
                    backend.update_quota(pod, *args)
                else:
                    backend.deregister(pod)
            except BackendError:
                log.append(("error", engine.now, op, index, pod))
            read_quotas()

    engine.process(drive())
    engine.run(until=sum(step[0] for step in steps) + 1.0)
    read_quotas()
    return log, engine


@given(st.lists(calls(), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_lazy_windows_grant_and_read_like_eager_windows(steps):
    lazy, engine = replay(lambda engine, name: FaSTBackend(engine, name, WINDOW), steps)
    eager, _ = replay(lambda engine, name: EagerWindowBackend(engine, name, WINDOW), steps)
    assert lazy == eager
    # Idle costs nothing: with no quota in use, no rollover stays queued.
    _, _, *quotas = lazy[-1]
    if all(q == 0.0 for rows in quotas for _, q in rows):
        assert engine.pending_events == 0


def test_two_backends_unblocked_at_one_boundary_grant_in_creation_order():
    """The case a timer per backend would get wrong: backend 0 arms
    mid-window while backend 1 has been armed from the start; both rolls
    then unblock a waiter at the same instant, and the eager timers grant 0
    before 1."""
    steps = [
        (0.0, "register", 0, "a", (50.0, 0.2, 0.2)),
        (0.0, "register", 1, "a", (50.0, 0.2, 0.2)),
        (0.0, "request", 1, "a", ()),
        (0.0, "charge", 1, "a", (0.1,)),  # 1 stays armed for five windows
        (0.0, "release", 1, "a", ()),
        (0.0, "request", 1, "a", ()),  # blocked until 1's quota decays
        (0.25, "request", 0, "a", ()),
        (0.0, "charge", 0, "a", (0.06,)),  # 0 arms mid-window
        (0.0, "release", 0, "a", ()),
        (0.0, "request", 0, "a", ()),  # blocked until 0's quota decays
    ]
    lazy, _ = replay(lambda engine, name: FaSTBackend(engine, name, WINDOW), steps)
    eager, _ = replay(lambda engine, name: EagerWindowBackend(engine, name, WINDOW), steps)
    assert lazy == eager
    grants = [entry for entry in eager if entry[0] == "grant"]
    assert [entry[2] for entry in grants[-2:]] == [0, 1]
    assert grants[-1][1] == grants[-2][1]  # one instant
