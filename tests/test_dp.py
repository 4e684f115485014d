import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsynth.dp import (DEFAULT_ORDERS, DpConfig, RdpAccountant,
                         calibrate_sigma, clip, clip_scales, epsilon_after,
                         privatize, rdp_subsampled_gaussian)
from fedsynth.errors import CalibrationError, ValidationError
from fedsynth.nn import (BLOCK, GradientVector, PerSampleGrads, TrainingSample,
                         init_denoiser, per_sample_grads)

# Frozen oracle: subsampled-Gaussian RDP at q=0.01, sigma=1, alpha=2.
# Closed form log(1 + q^2 (e - 1)); cross-checked below with mpmath.
RDP_Q01_S1_A2 = 1.7181342207454793e-4

# Frozen oracle: one full-batch Gaussian step (q=1, sigma=1) converted at
# delta=1e-5 over the default order grid; optimum sits at alpha=5.75.
EPS_SINGLE_STEP = 5.298773782098995
EPS_SINGLE_STEP_ORDER = 5.75


# ---------------------------------------------------------------------------
# Config


def test_dpconfig_defaults_disable_everything():
    cfg = DpConfig()
    assert not cfg.mechanism_active
    assert not cfg.accounting_active


def test_dpconfig_finite_epsilon_enables_both():
    cfg = DpConfig(epsilon=1.0)
    assert cfg.mechanism_active and cfg.accounting_active


def test_dpconfig_explicit_sigma_enables_mechanism_only():
    cfg = DpConfig(noise_multiplier=0.5)
    assert cfg.mechanism_active and not cfg.accounting_active
    cfg0 = DpConfig(noise_multiplier=0.0)
    assert cfg0.mechanism_active


def test_dpconfig_rejects_bad_values():
    with pytest.raises(ValidationError):
        DpConfig(epsilon=0.0)
    with pytest.raises(ValidationError):
        DpConfig(epsilon=-1.0)
    with pytest.raises(ValidationError):
        DpConfig(delta=1.5)
    with pytest.raises(ValidationError):
        DpConfig(clip_norm=0.0)
    with pytest.raises(ValidationError):
        DpConfig(noise_multiplier=-0.1)


# ---------------------------------------------------------------------------
# Clipping


def test_clip_three_four_five():
    g = GradientVector(np.array([3.0, 4.0]))
    clipped = clip(g, 1.0)
    np.testing.assert_allclose(clipped.values, [0.6, 0.8], rtol=1e-15)
    assert clipped.norm == 1.0


def test_clip_noop_inside_ball():
    g = GradientVector(np.array([0.3, 0.4]))
    clipped = clip(g, 1.0)
    assert clipped is g


def test_clip_rejects_nonfinite():
    with pytest.raises(ValidationError):
        clip(GradientVector(np.array([np.inf, 1.0])), 1.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=32),
       st.floats(1e-3, 1e3))
def test_clip_never_exceeds_bound(values, c):
    g = GradientVector(np.asarray(values, dtype=np.float64))
    clipped = clip(g, c)
    assert float(np.linalg.norm(clipped.values)) <= c + 1e-9
    # direction preserved
    if g.norm > 0:
        cos = float(clipped.values @ g.values) / (
            max(np.linalg.norm(clipped.values), 1e-300) * g.norm)
        assert cos == pytest.approx(1.0, abs=1e-9) or clipped.norm == 0.0


# ---------------------------------------------------------------------------
# Privatized batch gradient


def _grads(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return PerSampleGrads([(np.ones((len(rows), 1)), rows)])


def test_privatize_sigma_zero_is_clipped_mean():
    batch = _grads([[3.0, 4.0], [0.0, 0.5], [-6.0, 8.0]])
    out = privatize(batch, 1.0, 0.0, rng=None)
    expected = (np.array([0.6, 0.8]) + np.array([0.0, 0.5])
                + np.array([-0.6, 0.8])) / 3.0
    np.testing.assert_allclose(out.values, expected, rtol=1e-15)


def test_privatize_sigma_zero_never_touches_rng():
    class Boom:
        def standard_normal(self, *a):  # pragma: no cover - must not run
            raise AssertionError("rng used with sigma=0")

    privatize(_grads([[1.0, 0.0]]), 1.0, 0.0, rng=Boom())


def test_privatize_noise_scale_standard_placement():
    """Std of the noise on the averaged gradient is sigma * C / B."""
    n, b, sigma, c = 200_000, 4, 2.0, 0.5
    batch = _grads([np.zeros(n)] * b)
    out = privatize(batch, c, sigma, rng=np.random.default_rng(0))
    assert out.values.std() == pytest.approx(sigma * c / b, rel=0.02)


def test_privatize_rejects_empty_or_negative_sigma():
    with pytest.raises(ValidationError):
        privatize([], 1.0, 1.0, rng=None)
    with pytest.raises(ValidationError):
        privatize(_grads([[1.0]]), 1.0, -0.5, rng=None)


@settings(max_examples=60, deadline=None)
@given(n_tables=st.integers(0, 2), size=st.integers(1, 16),
       log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_privatize_matches_loop_oracle_and_bounds_every_row(n_tables, size,
                                                            log_scale, seed):
    """sigma = 0 gives sum_i clip(g_i, C) / B, and every scaled row lies in
    the ball. Vocabularies of 2 rows make samples share table rows."""
    rng = np.random.default_rng(seed)
    tables = [rng.normal(size=(2, 2)) for _ in range(n_tables)]
    params = init_denoiser(1 + 2 * n_tables, hidden_width=5, n_hidden=2,
                           time_dim=4, embeddings=tables, rng=rng)
    batch = [TrainingSample(rng.normal(size=params.d_enc), int(rng.integers(1, 20)),
                            rng.normal(size=params.d_enc),
                            emb_rows=rng.integers(0, 2, n_tables) if n_tables else None,
                            emb_coeff=0.6)
             for _ in range(size)]
    grads, _ = per_sample_grads(params, batch)
    # gradients 10^+-3 times their natural size: some, none or all get clipped
    grads = PerSampleGrads([(a, 10.0 ** log_scale * d) for a, d in grads.factors])
    c = 1.0
    oracle = sum(clip(g, c).values for g in grads) / size
    got = privatize(grads, c, 0.0, rng=None).values
    assert np.linalg.norm(got - oracle) <= 1e-12 * np.linalg.norm(oracle)
    scales = clip_scales(grads, c)
    for s_i, g in zip(scales, grads):
        assert np.linalg.norm(s_i * g.values) <= c


def test_privatize_blocked_noise_bit_equals_one_whole_draw():
    """The noise drawn block by block is the stream of one P-sized draw."""
    rng = np.random.default_rng(4)
    grads = PerSampleGrads([(rng.normal(size=(3, 300)), rng.normal(size=(3, 250)))])
    assert grads.size > 2 * BLOCK and grads.size % BLOCK
    total = grads.weighted_sum(clip_scales(grads, 1.0))
    noise = np.random.default_rng(9).standard_normal(grads.size)
    expected = (total + noise * (0.7 * 1.0)) / 3
    got = privatize(grads, 1.0, 0.7, np.random.default_rng(9)).values
    assert np.array_equal(got, expected)


def test_privatize_peak_memory_stays_below_eight_parameter_vectors():
    """No (B, P) matrix: at B = 64 the whole DP step peaks under 8 P-vectors."""
    rng = np.random.default_rng(0)
    params = init_denoiser(4, hidden_width=320, rng=rng)
    assert params.size >= 200_000
    batch = [TrainingSample(rng.normal(size=4), int(t), rng.normal(size=4))
             for t in rng.integers(1, 100, size=64)]
    tracemalloc.start()
    try:
        privatize(per_sample_grads(params, batch)[0], 1.0, 1.0,
                  np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * params.size * 8


# ---------------------------------------------------------------------------
# RDP of the subsampled Gaussian


def test_rdp_full_batch_closed_form():
    assert rdp_subsampled_gaussian(1.0, 1.0, 2.0) == 1.0
    assert rdp_subsampled_gaussian(1.0, 2.0, 3.0) == pytest.approx(3 / 8, rel=1e-15)
    # fractional order too: q=1 needs no interpolation
    assert rdp_subsampled_gaussian(1.0, 1.0, 5.5) == pytest.approx(2.75, rel=1e-15)


def test_rdp_subsampled_alpha2_frozen_value():
    got = rdp_subsampled_gaussian(0.01, 1.0, 2.0)
    assert got == pytest.approx(RDP_Q01_S1_A2, rel=1e-12)


def test_rdp_subsampled_alpha2_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    q = mp.mpf("0.01")
    exact = mp.log(1 + q * q * (mp.e - 1))
    got = rdp_subsampled_gaussian(0.01, 1.0, 2.0)
    assert got == pytest.approx(float(exact), rel=1e-12)


def test_rdp_integer_order_matches_mpmath_binomial_sum():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    cases = [("0.02", "1.3", 8), ("0.001", "0.8", 2), ("0.01", "1.0", 3),
             ("0.1", "2.0", 16), ("0.5", "5.0", 33), ("0.004", "1.1", 64),
             ("0.024", "4.0", 64), ("0.001", "10.0", 512), ("0.05", "30.0", 512)]
    for q, sigma, alpha in cases:
        q_mp, sigma_mp = mp.mpf(q), mp.mpf(sigma)
        total = mp.mpf(0)
        for k in range(alpha + 1):
            total += (mp.binomial(alpha, k) * (1 - q_mp) ** (alpha - k) * q_mp**k
                      * mp.e ** (k * (k - 1) / (2 * sigma_mp**2)))
        exact = mp.log(total) / (alpha - 1)
        got = rdp_subsampled_gaussian(float(q), float(sigma), float(alpha))
        assert got == pytest.approx(float(exact), rel=1e-12), (q, sigma, alpha)


def test_rdp_monotone_in_q():
    vals = [rdp_subsampled_gaussian(q, 1.0, 4.0)
            for q in [0.001, 0.01, 0.1, 0.5, 1.0]]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_rdp_monotone_in_sigma():
    vals = [rdp_subsampled_gaussian(0.05, s, 4.0)
            for s in [0.5, 1.0, 2.0, 4.0, 8.0]]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_rdp_log_moment_nondecreasing_in_alpha():
    moments = [(a - 1) * rdp_subsampled_gaussian(0.02, 1.0, a)
               for a in [2.0, 3.0, 4.0, 8.0, 16.0, 64.0]]
    assert all(a <= b for a, b in zip(moments, moments[1:]))


def test_rdp_fractional_order_interpolates_log_moment():
    q, sigma = 0.03, 1.1
    k5 = 4.0 * rdp_subsampled_gaussian(q, sigma, 5.0)
    k6 = 5.0 * rdp_subsampled_gaussian(q, sigma, 6.0)
    got = rdp_subsampled_gaussian(q, sigma, 5.5)
    assert got == pytest.approx((0.5 * k5 + 0.5 * k6) / 4.5, rel=1e-14)


def test_rdp_below_order_one_interpolates_from_zero():
    # between alpha=1 (zero moment) and alpha=2
    q, sigma = 0.05, 1.0
    k2 = rdp_subsampled_gaussian(q, sigma, 2.0)
    got = rdp_subsampled_gaussian(q, sigma, 1.5)
    assert got == pytest.approx(0.5 * k2 / 0.5, rel=1e-14)


def test_rdp_rejects_bad_arguments():
    for bad in [(0.0, 1.0, 2.0), (1.1, 1.0, 2.0), (0.5, 0.0, 2.0),
                (0.5, 1.0, 1.0)]:
        with pytest.raises(ValidationError):
            rdp_subsampled_gaussian(*bad)


# ---------------------------------------------------------------------------
# Accountant


def test_accountant_additivity_exact():
    one = RdpAccountant()
    one.account_step(0.1, 1.2)
    many = RdpAccountant()
    many.account_step(0.1, 1.2, count=7)
    np.testing.assert_array_equal(many.rdp_totals(), 7.0 * one.rdp_totals())
    loop = RdpAccountant()
    for _ in range(7):
        loop.account_step(0.1, 1.2)
    np.testing.assert_array_equal(loop.rdp_totals(), many.rdp_totals())


def test_accountant_single_gaussian_step_conversion_frozen():
    acc = RdpAccountant()
    acc.account_step(1.0, 1.0)
    eps, order = acc.to_epsilon(1e-5)
    assert eps == pytest.approx(EPS_SINGLE_STEP, rel=1e-12)
    assert order == EPS_SINGLE_STEP_ORDER


def test_accountant_conversion_near_continuous_optimum():
    """The grid answer can exceed the continuous optimum only by a hair."""
    acc = RdpAccountant()
    acc.account_step(1.0, 1.0)
    eps, _ = acc.to_epsilon(1e-5)
    log1d = math.log(1e5)
    alpha_star = 1.0 + math.sqrt(2.0 * log1d)
    continuous = alpha_star / 2.0 + log1d / (alpha_star - 1.0)
    assert continuous <= eps < continuous * 1.001


def test_epsilon_decreases_with_sigma():
    eps = [epsilon_after(0.05, s, 500, 1e-5) for s in [0.8, 1.0, 2.0, 4.0]]
    assert all(a > b for a, b in zip(eps, eps[1:]))


def test_epsilon_increases_with_steps():
    eps = [epsilon_after(0.05, 1.0, n, 1e-5) for n in [10, 100, 1000]]
    assert all(a < b for a, b in zip(eps, eps[1:]))


def test_projected_epsilon_matches_replay():
    acc = RdpAccountant()
    acc.account_step(0.1, 1.5, count=40)
    projected = acc.projected_epsilon(1e-5, 0.1, 1.5, extra_steps=10)
    replay = RdpAccountant()
    replay.account_step(0.1, 1.5, count=50)
    assert projected == pytest.approx(replay.to_epsilon(1e-5)[0], rel=1e-12)
    # projection does not mutate
    assert acc.steps == 40


def test_accountant_state_roundtrip():
    acc = RdpAccountant()
    acc.account_step(0.1, 1.0, count=3)
    acc.account_step(0.2, 2.0, count=5)
    state = acc.state_arrays()
    back = RdpAccountant.from_state_arrays(**state)
    assert back.groups == acc.groups
    np.testing.assert_array_equal(back.rdp_totals(), acc.rdp_totals())


def test_accountant_rejects_empty_conversion_and_bad_delta():
    acc = RdpAccountant()
    with pytest.raises(ValidationError):
        acc.to_epsilon(1e-5)
    acc.account_step(1.0, 1.0)
    with pytest.raises(ValidationError):
        acc.to_epsilon(0.0)


def test_default_orders_grid_shape():
    assert DEFAULT_ORDERS[0] == 1.25
    assert DEFAULT_ORDERS[-1] == 512.0
    assert np.all(np.diff(DEFAULT_ORDERS) > 0)
    assert 5.75 in DEFAULT_ORDERS and 64.0 in DEFAULT_ORDERS


# ---------------------------------------------------------------------------
# Calibration


@pytest.mark.parametrize("target", [0.2, 1.0, 10.0])
def test_calibration_roundtrip_within_one_percent(target):
    q, steps, delta = 0.1, 100, 1e-5
    sigma = calibrate_sigma(target, delta, q, steps)
    achieved = epsilon_after(q, sigma, steps, delta)
    assert 0.95 * target < achieved <= target


def test_calibration_more_steps_needs_more_noise():
    s1 = calibrate_sigma(1.0, 1e-5, 0.05, 100)
    s2 = calibrate_sigma(1.0, 1e-5, 0.05, 1000)
    assert s2 > s1


def test_calibration_tighter_budget_needs_more_noise():
    s_tight = calibrate_sigma(0.2, 1e-5, 0.05, 200)
    s_loose = calibrate_sigma(5.0, 1e-5, 0.05, 200)
    assert s_tight > s_loose


def test_calibration_unreachable_target_raises():
    with pytest.raises(CalibrationError):
        calibrate_sigma(1e-6, 1e-5, 1.0, 1000)


def test_calibration_trivial_target_returns_bracket_floor():
    sigma = calibrate_sigma(1e9, 1e-5, 0.01, 10)
    assert sigma == 1e-2


def test_calibration_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        calibrate_sigma(math.inf, 1e-5, 0.1, 10)
    with pytest.raises(ValidationError):
        calibrate_sigma(1.0, 1e-5, 0.1, 0)
