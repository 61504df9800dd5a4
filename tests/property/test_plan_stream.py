"""``ModelProfile.make_plan`` against the numpy-array formula it replaced.

``make_plan`` now splits the jittered GPU time with plain floats; the
formula below is the earlier one (``np.full`` weights, array division,
a ``float()`` per burst).  Both must draw the same random stream and give
bit-identical plans, for every zoo model and for burst counts well past 8,
where a Python left-to-right sum would already differ from numpy's
pairwise ``raw.sum()``.
"""

from __future__ import annotations

import dataclasses
import math

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.models import MODEL_ZOO


def array_plan(model, partition_pct, rng, gpu_factor):
    """The earlier formula, returning (durations, sm_activity, gaps, pre_gap)."""
    total_gpu = model.gpu_time_ms / 1000.0 / model.scale(partition_pct) / gpu_factor
    weights = np.full(model.n_bursts, 1.0 / model.n_bursts)
    if rng is not None and model.jitter_cv > 0:
        sigma = math.sqrt(math.log(1.0 + model.jitter_cv**2))
        total_gpu *= float(rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma))
        raw = rng.uniform(0.7, 1.3, size=model.n_bursts)
        weights = raw / raw.sum()
    host_total = model.host_time_ms / 1000.0
    per_gap = 0.7 * host_total / model.n_bursts
    return (
        [float(total_gpu * w) for w in weights],
        model.sm_activity(partition_pct),
        [per_gap] * model.n_bursts,
        0.3 * host_total,
    )


@given(
    name=st.sampled_from(sorted(MODEL_ZOO)),
    n_bursts=st.one_of(st.none(), st.integers(1, 40)),
    jitter_cv=st.one_of(st.none(), st.sampled_from([0.0, 0.05, 0.3])),
    partition=st.floats(min_value=1.0, max_value=100.0),
    gpu_factor=st.one_of(st.just(1.0), st.floats(min_value=0.2, max_value=4.0)),
    seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
@settings(max_examples=300, deadline=None)
def test_plans_match_the_array_formula_bit_for_bit(
    name, n_bursts, jitter_cv, partition, gpu_factor, seed
):
    model = MODEL_ZOO[name]
    if n_bursts is not None:
        model = dataclasses.replace(model, n_bursts=n_bursts)
    if jitter_cv is not None:
        model = dataclasses.replace(model, jitter_cv=jitter_cv)
    rng = None if seed is None else np.random.default_rng(seed)
    twin = None if seed is None else np.random.default_rng(seed)
    plan = model.make_plan(partition, rng, gpu_factor)
    durations, sm_activity, gaps, pre_gap = array_plan(model, partition, twin, gpu_factor)
    assert [d.hex() for d in plan.durations] == [d.hex() for d in durations]
    assert all(type(d) is float for d in plan.durations)
    assert (plan.sm_activity, plan.host_gaps, plan.pre_gap) == (sm_activity, gaps, pre_gap)
    if rng is not None:
        assert rng.random() == twin.random()  # the same draws were consumed
