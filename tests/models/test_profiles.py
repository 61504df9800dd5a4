"""Unit tests for model profiles and the calibration targets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import MODEL_ZOO, get_model
from repro.models.profiles import SHARE_CONTEXT_MB, MemoryProfile
from repro.models.scaling import interpolate_anchors, monotone, saturation_point


# ---- scaling curves -----------------------------------------------------------

def test_interpolation_hits_anchors_exactly():
    anchors = {6: 0.28, 12: 0.49, 24: 0.93, 100: 1.0}
    for s, v in anchors.items():
        assert interpolate_anchors(anchors, s) == pytest.approx(v)


def test_interpolation_between_anchors_is_linear():
    anchors = {10: 0.5, 20: 1.0}
    assert interpolate_anchors(anchors, 15) == pytest.approx(0.75)


def test_interpolation_below_first_anchor_goes_to_zero():
    anchors = {10: 0.5}
    assert interpolate_anchors(anchors, 5) == pytest.approx(0.25)
    assert interpolate_anchors(anchors, 1) == pytest.approx(0.05)


def test_interpolation_clamps_above_last_anchor():
    anchors = {50: 0.9, 100: 1.0}
    assert interpolate_anchors(anchors, 100) == 1.0


def test_interpolation_rejects_nonpositive_partition():
    with pytest.raises(ValueError):
        interpolate_anchors({10: 1.0}, 0)


def test_saturation_point():
    anchors = {6: 0.3, 12: 0.5, 24: 0.98, 50: 1.0, 100: 1.0}
    assert saturation_point(anchors) == 24


def test_monotone_check():
    assert monotone({1: 0.1, 2: 0.2})
    assert not monotone({1: 0.2, 2: 0.1})


# ---- zoo calibration (paper-tied numbers) -----------------------------------------

def test_zoo_has_all_paper_models():
    expected = {"resnet50", "rnnt", "bert", "gnmt", "resnet152", "resnext_xlarge", "vit_huge"}
    assert expected <= set(MODEL_ZOO)


def test_racing_pod_rates_match_section_5_3():
    # §5.3: single racing pod throughputs 71.37 / 12.51 / 28.85 req/s.
    assert get_model("resnet50").expected_rate(100) == pytest.approx(71.37, rel=0.01)
    assert get_model("rnnt").expected_rate(100) == pytest.approx(12.51, rel=0.01)
    assert get_model("gnmt").expected_rate(100) == pytest.approx(28.85, rel=0.01)


def test_eight_pods_at_12pct_match_section_5_3():
    # §5.3: aggregate throughput of 8 spatial pods at 12% SMs.
    assert 8 * get_model("resnet50").expected_rate(12) == pytest.approx(296.8, rel=0.03)
    assert 8 * get_model("rnnt").expected_rate(12) == pytest.approx(43.24, rel=0.03)
    assert 8 * get_model("gnmt").expected_rate(12) == pytest.approx(43.79, rel=0.03)


def test_quota_scales_rate_proportionally():
    model = get_model("resnet50")
    full = model.expected_rate(100, quota=1.0)
    for quota in (0.2, 0.4, 0.6, 0.8):
        rate = model.expected_rate(100, quota=quota)
        # Fig. 8: "throughput over temporal dimension is basically proportional".
        assert rate == pytest.approx(quota / (model.gpu_time_ms / 1000), rel=1e-6)
        assert rate < full


def test_larger_models_saturate_later():
    # Paper: "larger models require more SM partitions to reach saturation".
    assert get_model("resnet50").saturation_partition <= get_model("bert").saturation_partition
    assert get_model("bert").saturation_partition <= get_model("gnmt").saturation_partition


def test_sm_activity_increases_with_partition_but_bounded():
    model = get_model("resnet50")
    a12, a100 = model.sm_activity(12), model.sm_activity(100)
    assert 0 < a12 < a100 <= model.sm_residency
    assert a12 <= 0.12


def test_slo_defaults_present():
    assert get_model("resnet50").slo_ms == 69.0  # §5.4


# ---- memory profiles: Fig. 13 exact bars --------------------------------------------

@pytest.mark.parametrize(
    "name, original, shared_pod, server",
    [
        ("resnet50", 1525, 1427, 416),
        ("resnet152", 1745, 1501, 601),
        ("resnext_xlarge", 3335, 1829, 1806),  # paper: 1805 (±1 MB rounding)
        ("vit_huge", 4735, 2101, 2979),
    ],
)
def test_fig13_memory_bars(name: str, original: float, shared_pod: float, server: float):
    memory = get_model(name).memory
    assert memory.original_mb == pytest.approx(original, abs=1.0)
    assert memory.shared_pod_mb == pytest.approx(shared_pod, abs=1.0)
    assert memory.server_mb == pytest.approx(server, abs=1.0)


def test_vit_three_pod_example_from_section_5_5():
    # §5.5: 3 ViT pods: 9282 MB shared (2979 + 3x2101) vs 14205 MB (3x4735).
    memory = get_model("vit_huge").memory
    assert memory.total_mb(3, shared=True) == pytest.approx(9282, abs=3)
    assert memory.total_mb(3, shared=False) == pytest.approx(14205, abs=3)


def test_resnext_pods_per_gpu_from_section_5_5():
    # §5.5: a 16 GB V100 fits 7 ResNeXt pods with sharing, 4 without.
    from repro.gpu import gpu_spec

    capacity = gpu_spec("V100").usable_mb
    memory = get_model("resnext_xlarge").memory

    def max_pods(shared: bool) -> int:
        n = 0
        while memory.total_mb(n + 1, shared=shared) <= capacity:
            n += 1
        return n

    assert max_pods(shared=False) == 4
    assert max_pods(shared=True) == 7


def test_total_mb_zero_replicas():
    memory = get_model("resnet50").memory
    assert memory.total_mb(0, shared=True) == 0.0
    with pytest.raises(ValueError):
        memory.total_mb(-1, shared=True)


def test_share_context_constant():
    assert SHARE_CONTEXT_MB == 300.0  # §5.5


def test_memory_profile_derivations():
    profile = MemoryProfile(framework_mb=1000, weights_mb=500, activation_mb=200, ipc_overhead_mb=10)
    assert profile.original_mb == 1700
    assert profile.shared_pod_mb == 1200
    assert profile.server_mb == 810


# ---- plan generation ----------------------------------------------------------------

def test_plan_deterministic_without_rng():
    model = get_model("resnet50")
    p1, p2 = model.make_plan(24), model.make_plan(24)
    assert p1.gpu_time == pytest.approx(p2.gpu_time)
    assert p1.gpu_time == pytest.approx(model.gpu_time_ms / 1000 / model.scale(24))
    assert len(p1.durations) == model.n_bursts


def test_plan_host_time_matches_profile():
    model = get_model("bert")
    plan = model.make_plan(50)
    assert plan.host_time == pytest.approx(model.host_time_ms / 1000)


def test_plan_with_rng_jitters_but_preserves_mean():
    model = get_model("resnet50")
    rng = np.random.default_rng(0)
    times = [model.make_plan(100, rng).gpu_time for _ in range(400)]
    nominal = model.gpu_time_ms / 1000
    assert np.mean(times) == pytest.approx(nominal, rel=0.02)
    assert np.std(times) > 0




def test_service_time_decreases_with_partition():
    model = get_model("gnmt")
    assert model.service_time_s(6) > model.service_time_s(24) > model.service_time_s(100)


def test_expected_rate_rejects_bad_quota():
    with pytest.raises(ValueError):
        get_model("resnet50").expected_rate(100, quota=0)
    with pytest.raises(ValueError):
        get_model("resnet50").expected_rate(100, quota=1.5)
