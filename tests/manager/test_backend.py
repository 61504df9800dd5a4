"""Unit tests for the FaST Backend multi-token scheduler."""

from __future__ import annotations

import pytest

from repro.manager import BackendError, FaSTBackend, TimeToken
from repro.sim import Engine


@pytest.fixture
def backend(engine: Engine) -> FaSTBackend:
    return FaSTBackend(engine, window=0.1)


def test_register_and_table(backend: FaSTBackend):
    backend.register("a", 12, 0.3, 0.8)
    backend.register("b", 24, 0.4, 0.4)
    assert [e.pod_id for e in backend.table()] == ["a", "b"]


def test_double_register_rejected(backend: FaSTBackend):
    backend.register("a", 12, 0.3, 0.8)
    with pytest.raises(BackendError):
        backend.register("a", 12, 0.3, 0.8)


@pytest.mark.parametrize(
    "partition, request_q, limit_q",
    [(0, 0.3, 0.8), (101, 0.3, 0.8), (12, 0.0, 0.8), (12, 0.9, 0.8), (12, 0.3, 1.5)],
)
def test_invalid_registration_rejected(backend: FaSTBackend, partition, request_q, limit_q):
    with pytest.raises(BackendError):
        backend.register("a", partition, request_q, limit_q)


def test_token_granted_immediately_with_capacity(backend: FaSTBackend):
    backend.register("a", 12, 0.3, 0.8)
    grant = backend.request_token("a")
    assert grant.ok
    token = grant.value
    assert isinstance(token, TimeToken)
    assert token.pod_id == "a" and token.sm_partition == 12


def test_concurrent_tokens_up_to_sm_limit(backend: FaSTBackend):
    # Multi-token scheduling: several pods run concurrently under 100% SMs.
    for pod in ("a", "b", "c", "d"):
        backend.register(pod, 24, 0.5, 0.5)
    grants = [backend.request_token(p) for p in ("a", "b", "c", "d")]
    assert all(g.ok for g in grants)
    assert backend.adapter.running_total == pytest.approx(96)


def test_token_denied_beyond_sm_limit(backend: FaSTBackend):
    backend.register("big1", 60, 0.5, 0.5)
    backend.register("big2", 60, 0.5, 0.5)
    g1 = backend.request_token("big1")
    g2 = backend.request_token("big2")
    assert g1.ok and not g2.triggered  # 60 + 60 > 100: second waits
    backend.release_token("big1")
    assert g2.ok


def test_priority_by_q_miss(backend: FaSTBackend):
    # One pod already consumed quota; the fresh pod has the larger Q_miss
    # and must be granted first when capacity frees.
    backend.register("used", 60, 0.6, 0.6)
    backend.register("fresh", 60, 0.6, 0.6)
    backend.register("hog", 90, 0.9, 0.9)
    hog = backend.request_token("hog")
    assert hog.ok
    backend.charge("used", 0.04)  # 0.04s / 0.1s window = 0.4 quota used
    g_used = backend.request_token("used")
    g_fresh = backend.request_token("fresh")
    assert not g_used.triggered and not g_fresh.triggered
    backend.release_token("hog")
    # fresh (Q_miss 0.6) beats used (Q_miss 0.2).
    assert g_fresh.ok and not g_used.triggered


def test_blocked_pod_waits_for_window(engine: Engine, backend: FaSTBackend):
    backend.register("a", 12, 0.5, 0.5)
    grant = backend.request_token("a")
    assert grant.ok
    backend.charge("a", 0.06)  # 0.6 of the window > limit 0.5 -> blocked
    assert grant.value.valid is False  # invalidated on exhaustion
    backend.release_token("a")
    regrant = backend.request_token("a")
    assert not regrant.triggered
    engine.run(until=0.11)  # roll one window
    assert regrant.ok


def test_overage_carries_into_next_window(engine: Engine, backend: FaSTBackend):
    backend.register("a", 12, 0.2, 0.2)
    backend.request_token("a")
    backend.charge("a", 0.05)  # 0.5 used vs 0.2 limit: 0.3 overage
    backend.release_token("a")
    engine.run(until=0.11)
    entry = backend.entries["a"]
    # One window decays by quota_limit (0.2): 0.5 -> 0.3, still blocked.
    assert entry.q_used == pytest.approx(0.3)
    assert entry.blocked
    engine.run(until=0.31)
    assert not backend.entries["a"].blocked


def test_elastic_region_is_lowest_priority(backend: FaSTBackend):
    # Pod past Q_request but under Q_limit (elastic) yields to an unserved pod.
    backend.register("elastic", 60, 0.3, 0.9)
    backend.register("starved", 60, 0.5, 0.5)
    backend.register("hog", 80, 0.8, 0.8)
    hog = backend.request_token("hog")
    assert hog.ok
    backend.charge("elastic", 0.04)  # Q_miss = 0.3-0.4 < 0, Q_remain = 0.5 > 0
    g_elastic = backend.request_token("elastic")
    g_starved = backend.request_token("starved")
    backend.release_token("hog")
    assert g_starved.ok
    assert not g_elastic.triggered  # 60+60 > 100, and it lost the priority race


def test_deregister_fails_waiters(backend: FaSTBackend):
    backend.register("hog", 100, 1.0, 1.0)
    backend.register("a", 50, 0.5, 0.5)
    assert backend.request_token("hog").ok
    waiting = backend.request_token("a")
    backend.deregister("a")
    assert waiting.failed
    assert isinstance(waiting.value, BackendError)


def test_deregister_holder_frees_capacity(backend: FaSTBackend):
    backend.register("hog", 100, 1.0, 1.0)
    backend.register("next", 100, 1.0, 1.0)
    assert backend.request_token("hog").ok
    waiting = backend.request_token("next")
    backend.deregister("hog")
    assert waiting.ok


def test_unknown_pod_operations_raise(backend: FaSTBackend):
    with pytest.raises(BackendError):
        backend.request_token("ghost")
    with pytest.raises(BackendError):
        backend.charge("ghost", 0.01)
    with pytest.raises(BackendError):
        backend.deregister("ghost")


def test_update_quota(backend: FaSTBackend):
    backend.register("a", 12, 0.3, 0.8)
    backend.update_quota("a", sm_partition=24, quota_request=0.4, quota_limit=0.6)
    entry = backend.entries["a"]
    assert (entry.sm_partition, entry.quota_request, entry.quota_limit) == (24, 0.4, 0.6)
    with pytest.raises(BackendError):
        backend.update_quota("a", quota_request=0.9, quota_limit=0.5)


def test_update_quota_while_holding_rejected(backend: FaSTBackend):
    backend.register("a", 12, 0.3, 0.8)
    backend.request_token("a")
    with pytest.raises(BackendError):
        backend.update_quota("a", sm_partition=24)


def test_negative_charge_rejected(backend: FaSTBackend):
    backend.register("a", 12, 0.3, 0.8)
    with pytest.raises(BackendError):
        backend.charge("a", -0.1)


def test_invalid_window():
    with pytest.raises(ValueError):
        FaSTBackend(Engine(), window=0)


def test_head_of_queue_blocking(backend: FaSTBackend):
    # The adapter stops at the first pod that does not fit, even if a later
    # pod would (paper semantics; prevents large-partition starvation).
    backend.register("running", 50, 0.5, 0.5)
    backend.register("large", 60, 0.6, 0.6)
    backend.register("small", 10, 0.1, 0.1)
    assert backend.request_token("running").ok
    g_large = backend.request_token("large")
    g_small = backend.request_token("small")
    # large has higher Q_miss (0.6) and is queue head; it does not fit, so
    # nothing is granted — not even small, which would fit.
    assert not g_large.triggered and not g_small.triggered
    backend.release_token("running")
    assert g_large.ok
    # With 60 in flight, small (10) now fits behind the head.
    assert g_small.ok


@pytest.mark.parametrize(
    "update",
    [
        {"sm_partition": 250},
        {"sm_partition": -5},
        {"sm_partition": 0},
        {"quota_request": 0.0},
        {"quota_request": 0.9},
        {"quota_limit": 1.5},
    ],
)
def test_update_quota_validates_like_register(backend: FaSTBackend, update):
    backend.register("a", 12, 0.3, 0.8)
    with pytest.raises(BackendError):
        backend.update_quota("a", **update)
    entry = backend.entries["a"]
    # A rejected update leaves the row as it was.
    assert (entry.sm_partition, entry.quota_request, entry.quota_limit) == (12, 0.3, 0.8)


@pytest.mark.parametrize("seconds", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_charge_rejected(engine: Engine, backend: FaSTBackend, seconds):
    backend.register("a", 12, 0.3, 0.8)
    with pytest.raises(BackendError):
        backend.charge("a", seconds)
    assert backend.entries["a"].q_used == 0.0
    assert engine.pending_events == 0  # nothing armed the window rollover


def test_window_rollover_runs_only_while_quota_is_used(engine: Engine, backend: FaSTBackend):
    backend.register("a", 12, 0.2, 0.2)
    assert engine.pending_events == 0  # an unused backend keeps no timer
    engine.run(until=0.25)
    backend.charge("a", 0.03)  # 0.3 of a window: two rolls bring it to 0
    assert engine.peek() == 0.1 + 0.1 + 0.1  # the next boundary on the chain
    engine.run(until=0.35)
    assert backend.entries["a"].q_used == pytest.approx(0.1)
    engine.run()
    assert backend.entries["a"].q_used == 0.0
    assert engine.now == 0.1 + 0.1 + 0.1 + 0.1  # the roll that disarmed it
