import tracemalloc

import numpy as np
import pytest
from scipy import stats

from fedsynth.diffusion import (NoiseSchedule, generate, linear_schedule,
                                make_training_example, p_sample_step, q_sample)
from fedsynth.errors import DivergenceError, ValidationError
from fedsynth.nn import forward, init_denoiser, layer_buffers

# Cumulative signal of the default 500-step linear schedule, frozen from an
# independent high-precision computation.
ALPHA_BAR_FINAL = 0.006352710797015061
SQRT_ALPHA_BAR_FINAL = 0.07970389449089085


# ---------------------------------------------------------------------------
# Schedule


def test_linear_schedule_endpoints_and_length():
    sched = linear_schedule()
    assert sched.timesteps == 500
    assert sched.beta(1) == 1e-4
    assert sched.beta(500) == 0.02
    diffs = np.diff(sched.betas)
    np.testing.assert_allclose(diffs, diffs[0], rtol=1e-9)


def test_alpha_bar_terminal_value_frozen():
    sched = linear_schedule()
    assert sched.alpha_bar(500) == pytest.approx(ALPHA_BAR_FINAL, rel=1e-12)
    assert np.sqrt(sched.alpha_bar(500)) == pytest.approx(
        SQRT_ALPHA_BAR_FINAL, rel=1e-12)


def test_alpha_bar_is_cumulative_product():
    sched = linear_schedule(timesteps=10)
    manual = 1.0
    for t in range(1, 11):
        manual *= 1.0 - sched.beta(t)
        assert sched.alpha_bar(t) == pytest.approx(manual, rel=1e-14)


def test_alpha_bar_strictly_decreasing():
    sched = linear_schedule()
    assert np.all(np.diff(sched.alpha_bars) < 0)
    assert sched.alpha_bars[0] == 1.0 - 1e-4


def test_single_step_schedule():
    sched = linear_schedule(timesteps=1)
    assert sched.timesteps == 1
    assert sched.beta(1) == 1e-4


def test_schedule_rejects_bad_betas():
    with pytest.raises(ValidationError):
        NoiseSchedule(np.array([0.0, 0.1]))
    with pytest.raises(ValidationError):
        NoiseSchedule(np.array([1.0]))
    with pytest.raises(ValidationError):
        linear_schedule(timesteps=0)


def test_schedule_rejects_out_of_range_t():
    sched = linear_schedule(timesteps=5)
    with pytest.raises(ValidationError):
        sched.beta(0)
    with pytest.raises(ValidationError):
        sched.beta(6)


# ---------------------------------------------------------------------------
# Forward process


def test_q_sample_zero_noise_is_pure_scaling():
    sched = linear_schedule(timesteps=50)
    x0 = np.array([1.0, -2.0, 0.5])
    xt = q_sample(x0, 50, np.zeros(3), sched)
    np.testing.assert_allclose(xt, np.sqrt(sched.alpha_bar(50)) * x0,
                               rtol=1e-15)


def test_q_sample_algebraic_inversion():
    """Given the drawn noise, the forward map inverts exactly."""
    sched = linear_schedule()
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=20)
    for t in [1, 17, 250, 500]:
        eps = rng.standard_normal(20)
        xt = q_sample(x0, t, eps, sched)
        abar = sched.alpha_bar(t)
        back = (xt - np.sqrt(1.0 - abar) * eps) / np.sqrt(abar)
        np.testing.assert_allclose(back, x0, atol=1e-9)


def test_q_sample_moments_match_theory():
    sched = linear_schedule()
    rng = np.random.default_rng(1)
    t = 250
    x0 = np.full(200_000, 0.8)
    eps = rng.standard_normal(x0.shape)
    xt = q_sample(x0, t, eps, sched)
    abar = sched.alpha_bar(t)
    n = x0.size
    # 3-sigma Monte Carlo bands
    mean_tol = 3.0 * np.sqrt(1.0 - abar) / np.sqrt(n)
    assert xt.mean() == pytest.approx(np.sqrt(abar) * 0.8, abs=mean_tol)
    var_tol = 3.0 * (1.0 - abar) * np.sqrt(2.0 / (n - 1))
    assert xt.var(ddof=1) == pytest.approx(1.0 - abar, abs=var_tol)


def test_q_sample_shape_mismatch_rejected():
    sched = linear_schedule(timesteps=5)
    with pytest.raises(ValidationError):
        q_sample(np.zeros(3), 1, np.zeros(4), sched)


def test_make_training_example_t_uniform():
    sched = linear_schedule(timesteps=20)
    rng = np.random.default_rng(2)
    counts = np.zeros(20)
    n = 20_000
    for _ in range(n):
        _, t, _ = make_training_example(np.zeros(2), rng, sched)
        counts[t - 1] += 1
    chi2 = float(((counts - n / 20) ** 2 / (n / 20)).sum())
    # 19 dof; p=0.999 cutoff ~ 43.8
    assert chi2 < stats.chi2.ppf(0.999, df=19)
    assert counts.min() > 0


def test_make_training_example_consistency():
    sched = linear_schedule(timesteps=30)
    rng = np.random.default_rng(3)
    x0 = np.array([0.3, -0.7])
    xt, t, eps = make_training_example(x0, rng, sched)
    np.testing.assert_allclose(xt, q_sample(x0, t, eps, sched), rtol=1e-15)


# ---------------------------------------------------------------------------
# Reverse process


def test_p_sample_step_terminal_adds_no_noise():
    sched = linear_schedule(timesteps=10)

    class Boom:
        def standard_normal(self, *a, **k):  # pragma: no cover - must not run
            raise AssertionError("noise drawn at t=1")

    x1 = np.array([0.4, -0.2])
    eps_hat = np.array([0.1, 0.1])
    out = p_sample_step(lambda x, t: eps_hat, x1, 1, sched, Boom())
    beta, alpha, abar = sched.beta(1), sched.alpha(1), sched.alpha_bar(1)
    expected = (x1 - beta / np.sqrt(1 - abar) * eps_hat) / np.sqrt(alpha)
    np.testing.assert_allclose(out, expected, rtol=1e-15)


def test_p_sample_step_noise_scale():
    sched = linear_schedule(timesteps=10)
    x = np.zeros(50_000)
    rng = np.random.default_rng(4)
    out = p_sample_step(lambda x_, t_: np.zeros_like(x_), x, 5, sched, rng)
    expected_std = np.sqrt(sched.beta(5))
    assert out.std() == pytest.approx(expected_std, rel=0.03)


def test_p_sample_step_divergence_detected():
    sched = linear_schedule(timesteps=5)
    rng = np.random.default_rng(5)
    with pytest.raises(DivergenceError):
        p_sample_step(lambda x, t: np.full_like(x, np.inf),
                      np.zeros(3), 2, sched, rng)


def test_oracle_denoiser_recovers_point_mass():
    """With the exact-posterior denoiser for a point mass at c, the reverse
    chain contracts toward c: eps_hat = (x_t - sqrt(abar) c)/sqrt(1-abar)."""
    sched = linear_schedule(timesteps=50)
    c = 1.3

    def oracle(x, t):
        abar = sched.alpha_bar(t)
        return (x - np.sqrt(abar) * c) / np.sqrt(1.0 - abar)

    rng = np.random.default_rng(6)
    out = generate(oracle, 4000, 1, sched, rng).ravel()
    assert out.mean() == pytest.approx(c, abs=0.05)
    # residual spread after the final (noise-free) step stays small
    assert out.std() < 0.15


def test_generate_zero_denoiser_variance_recursion():
    """With eps_hat = 0 the reverse chain is linear-Gaussian; its terminal
    variance follows v <- v/alpha + beta (no noise at t=1)."""
    sched = linear_schedule(timesteps=20)
    v = 1.0
    for t in range(20, 1, -1):
        v = v / sched.alpha(t) + sched.beta(t)
    v = v / sched.alpha(1)  # final step: scale only
    rng = np.random.default_rng(7)
    out = generate(lambda x, t: np.zeros_like(x), 60_000, 1, sched, rng).ravel()
    n = out.size
    var_tol = 4.0 * v * np.sqrt(2.0 / (n - 1))
    assert out.var(ddof=1) == pytest.approx(v, abs=var_tol)
    assert out.mean() == pytest.approx(0.0, abs=4.0 * np.sqrt(v / n))


def test_generate_shapes_and_determinism():
    sched = linear_schedule(timesteps=5)
    fn = lambda x, t: np.zeros_like(x)
    a = generate(fn, 7, 3, sched, np.random.default_rng(9))
    b = generate(fn, 7, 3, sched, np.random.default_rng(9))
    assert a.shape == (7, 3)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ValidationError):
        generate(fn, 0, 3, sched, np.random.default_rng(0))


def test_generate_with_buffered_forward_allocates_no_layer_sized_array():
    """The reverse chain's peak does not grow with T and stays below one
    (B, H) array of the denoiser's dtype, float64 or float32: every layer is
    written into buffers allocated up front."""
    n_rows, hidden = 1000, 128
    for dtype in (np.float64, np.float32):
        params = init_denoiser(6, hidden_width=hidden, n_hidden=3,
                               rng=np.random.default_rng(0)).astype(dtype)
        buffers = layer_buffers(params, n_rows)
        layer_bytes = n_rows * hidden * np.dtype(dtype).itemsize
        peaks = []
        for timesteps in (10, 200):
            tracemalloc.start()
            try:
                generate(lambda x, t: forward(params, x, t, buffers), n_rows, 6,
                         linear_schedule(timesteps), np.random.default_rng(1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < layer_bytes, dtype
        assert max(peaks) < layer_bytes, dtype
