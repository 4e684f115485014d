import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from fedsynth import dp
from fedsynth.dp import (DEFAULT_ORDERS, DpConfig, RdpAccountant,
                         calibrate_sigma, clip_scales, epsilon_after,
                         privatize, rdp_subsampled_gaussian)
from fedsynth.errors import CalibrationError, ValidationError
from fedsynth.nn import (BLOCK, PerSampleGrads, TrainingSample, init_denoiser,
                         per_sample_grads)
from fedsynth.store import canonical_json

# Frozen oracle: subsampled-Gaussian RDP at q=0.01, sigma=1, alpha=2.
# Closed form log(1 + q^2 (e - 1)); cross-checked below with mpmath.
RDP_Q01_S1_A2 = 1.7181342207454793e-4

# Frozen oracle: one full-batch Gaussian step (q=1, sigma=1) converted at
# delta=1e-5 over the default order grid; optimum sits at alpha=5.75.
EPS_SINGLE_STEP = 5.298773782098995
EPS_SINGLE_STEP_ORDER = 5.75


def _scipy_integer_order(q, sigma, alpha):
    """Oracle: the integer-order bound summed with scipy.special.logsumexp."""
    k = np.arange(alpha + 1)
    terms = (gammaln(alpha + 1) - gammaln(k + 1) - gammaln(alpha - k + 1)
             + k * (k - 1) / (2.0 * sigma * sigma)
             + (alpha - k) * math.log1p(-q) + k * math.log(q))
    return float(logsumexp(terms)) / (alpha - 1)


def _scipy_integer_rdp(q, sigma, max_order=None):
    return functools.cache(functools.partial(_scipy_integer_order, q, sigma))


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


def test_dpconfig_default_delta_needs_two_rows_per_client():
    cfg = DpConfig(epsilon=5.0)
    assert cfg.client_delta(0, 200) == 1 / 200
    assert DpConfig(epsilon=5.0, delta=1e-3).client_delta(4, 1) == 1e-3
    with pytest.raises(ValidationError, match=r"client 4 holds 1 row.*dp\.delta"):
        cfg.client_delta(4, 1)


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


@pytest.mark.parametrize("setting", [{"noise_multiplier": math.nan},
                                     {"noise_multiplier": math.inf},
                                     {"clip_norm": math.inf},
                                     {"delta": math.nan}])
def test_dpconfig_rejects_non_finite_values(setting):
    """A NaN sigma would switch the mechanism on and then add no noise."""
    with pytest.raises(ValidationError, match="finite|delta"):
        DpConfig(**setting)


# ---------------------------------------------------------------------------
# Clipping


def clip(grad: np.ndarray, clip_norm: float) -> np.ndarray:
    """Rescale one gradient vector onto the L2 ball of radius ``clip_norm``.

    The per-vector oracle that ``privatize``'s scaled clipping is checked
    against; the program itself clips through ``dp.clip_scales``.
    """
    if not clip_norm > 0.0:
        raise ValidationError("clip norm must be positive")
    if not np.all(np.isfinite(grad)):
        raise ValidationError("cannot clip a non-finite gradient")
    norm = float(np.linalg.norm(grad))
    if norm <= clip_norm:
        return grad
    values = grad * (clip_norm / norm)
    # a single float rescale can land one ulp outside the ball; contract
    # until the recomputed norm honours the bound
    actual = float(np.linalg.norm(values))
    while actual > clip_norm:
        values = values * (clip_norm / actual)
        actual = float(np.linalg.norm(values))
    return values


def test_clip_three_four_five():
    clipped = clip(np.array([3.0, 4.0]), 1.0)
    np.testing.assert_allclose(clipped, [0.6, 0.8], rtol=1e-15)
    assert np.linalg.norm(clipped) == pytest.approx(1.0, rel=1e-15)
    assert np.linalg.norm(clipped) <= 1.0


def test_clip_noop_inside_ball():
    g = np.array([0.3, 0.4])
    clipped = clip(g, 1.0)
    assert clipped is g


def test_clip_rejects_nonfinite():
    with pytest.raises(ValidationError):
        clip(np.array([np.inf, 1.0]), 1.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=32),
       st.floats(1e-3, 1e3))
def test_clip_never_exceeds_bound(values, c):
    g = np.asarray(values, dtype=np.float64)
    clipped = clip(g, c)
    clipped_norm = float(np.linalg.norm(clipped))
    assert clipped_norm <= c + 1e-9
    # direction preserved
    if np.linalg.norm(g) > 0:
        cos = float(clipped @ g) / (max(clipped_norm, 1e-300) * np.linalg.norm(g))
        assert cos == pytest.approx(1.0, abs=1e-9) or clipped_norm == 0.0


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
    np.testing.assert_allclose(out, expected, rtol=1e-15)


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
    assert out.std() == pytest.approx(sigma * c / b, rel=0.02)


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
    oracle = sum(clip(grads.row(i), c) for i in range(size)) / size
    got = privatize(grads, c, 0.0, rng=None)
    assert np.linalg.norm(got - oracle) <= 1e-12 * np.linalg.norm(oracle)
    scales = clip_scales(grads, c)
    for i, s_i in enumerate(scales):
        assert np.linalg.norm(s_i * grads.row(i)) <= c


@pytest.mark.parametrize("sigma", [0.0, 0.7])
def test_privatize_into_out_bit_equals_a_new_vector(sigma):
    """Written into a reused buffer holding stale values, the result is the
    same bytes as a fresh one; a buffer of the wrong shape, dtype or layout
    is refused."""
    rng = np.random.default_rng(4)
    grads = PerSampleGrads([(rng.normal(size=(3, 300)), rng.normal(size=(3, 250)))])
    expected = privatize(grads, 1.0, sigma, np.random.default_rng(9))
    out = np.full(grads.size, np.nan)
    got = privatize(grads, 1.0, sigma, np.random.default_rng(9), out)
    assert got is out and got.tobytes() == expected.tobytes()
    for bad in (np.empty(grads.size + 1), np.empty(grads.size, dtype=np.float32),
                np.empty(2 * grads.size)[::2]):
        with pytest.raises(ValidationError):
            privatize(grads, 1.0, sigma, np.random.default_rng(9), bad)


def test_privatize_blocked_noise_bit_equals_one_whole_draw():
    """The noise drawn block by block is the stream of one P-sized draw."""
    rng = np.random.default_rng(4)
    grads = PerSampleGrads([(rng.normal(size=(3, 300)), rng.normal(size=(3, 250)))])
    assert grads.size > 2 * BLOCK and grads.size % BLOCK
    total = grads.weighted_sum(clip_scales(grads, 1.0))
    noise = np.random.default_rng(9).standard_normal(grads.size)
    expected = (total + noise * (0.7 * 1.0)) / 3
    got = privatize(grads, 1.0, 0.7, np.random.default_rng(9))
    assert np.array_equal(got, expected)


def test_privatize_peak_memory_stays_below_eight_parameter_vectors():
    """No (B, P) matrix: at B = 64 the whole DP step peaks under 8 P-vectors."""
    rng = np.random.default_rng(0)
    params = init_denoiser(4, hidden_width=320, rng=rng)
    assert params.flat.size >= 200_000
    batch = [TrainingSample(rng.normal(size=4), int(t), rng.normal(size=4))
             for t in rng.integers(1, 100, size=64)]
    tracemalloc.start()
    try:
        privatize(per_sample_grads(params, batch)[0], 1.0, 1.0,
                  np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * params.flat.size * 8


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


def test_integer_orders_bit_equal_scipy_logsumexp():
    orders = list(range(2, 66)) + [128, 256, 512]
    for q in [1e-4, 1e-3, 0.008, 0.0158, 0.1, 0.5, 0.999]:
        for sigma in [1e-2, 0.3, 1.0, 3.7, 50.0, 1e3]:
            integer_rdp = dp._integer_rdp(q, sigma)
            for alpha in orders:
                expected = _scipy_integer_order(q, sigma, alpha)
                assert integer_rdp(alpha) == expected, (q, sigma, alpha)
                assert rdp_subsampled_gaussian(q, sigma, float(alpha)) == expected


def test_log_factorial_bit_equals_scipy_gammaln():
    ns = list(range(20_001)) + [10**5, 10**8 - 1, 10**8, 10**9, 2**40]
    expected = gammaln(np.array(ns, dtype=np.float64) + 1.0)
    got = np.array([dp._log_factorial(n) for n in ns])
    assert np.array_equal(got, expected)
    assert np.array_equal(dp._LOG_FACTORIAL, expected[:len(dp._LOG_FACTORIAL)])


def test_rdp_refuses_orders_above_the_log_factorial_table():
    assert dp._LOG_FACTORIAL.size == DEFAULT_ORDERS[-1] + 1 == 513
    for q in (0.01, 1.0):
        for alpha in (512.5, 513.0, 700.0):
            with pytest.raises(ValidationError, match=r"\(1, 512\]"):
                rdp_subsampled_gaussian(q, 1.0, alpha)


def test_accountant_and_one_order_view_read_the_same_curve(monkeypatch):
    """Every per-order RDP value the accountant and ``rdp_subsampled_gaussian``
    give is ``_rdp_curve``'s, so ``epsilon_after`` and calibration read it too."""
    curve = dp._rdp_curve
    calls = []

    def spy(q, sigma, orders=DEFAULT_ORDERS):
        calls.append((q, sigma))
        return curve(q, sigma, orders)

    monkeypatch.setattr(dp, "_rdp_curve", spy)
    acc = RdpAccountant()
    acc.account_step(0.02, 1.3, count=5)
    acc.account_step(0.02, 1.3)
    assert calls == [(0.02, 1.3)]
    one = [rdp_subsampled_gaussian(0.02, 1.3, a) for a in DEFAULT_ORDERS]
    assert acc.rdp_totals().tolist() == [6 * v for v in one]
    calls.clear()
    epsilon_after(0.02, 1.7, 10, 1e-5)
    assert calls == [(0.02, 1.7)]


def test_importing_the_package_and_cli_loads_no_scipy():
    """scipy.special alone costs 24 MB of resident memory at start-up."""
    code = ("import sys, fedsynth, fedsynth.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_logsumexp_counts_tied_maxima_like_scipy():
    for values in ([0.0, 0.0, 0.0], [3.0, -1.0, 3.0, 2.5], [-700.0, -700.0, -1e3]):
        a = np.array(values)
        assert dp._logsumexp(a.copy()) == float(logsumexp(a))


# generate_score's calibration (2000-row IID shards, 12 rounds of 2 steps),
# criterion 6's (non-IID shards of 1013, 582 and 405 rows, 50 rounds of 20
# steps) and the calibration tests' own inputs, as (epsilon, delta, q, steps)
CALIBRATION_INPUTS = (
    [(5.0, 1 / 2000, 16 / 2000, 24)]
    + [(0.2, 1 / n, 16 / n, 1000) for n in (1013, 582, 405)]
    + [(t, 1e-5, 0.1, 100) for t in (0.2, 1.0, 10.0)]
    + [(1.0, 1e-5, 0.05, 100), (1.0, 1e-5, 0.05, 1000), (0.2, 1e-5, 0.05, 200),
       (5.0, 1e-5, 0.05, 200), (5.0, 1.5e-3, 0.024, 1000), (1e9, 1e-5, 0.01, 10)])


def test_calibration_matches_scipy_logsumexp_oracle(monkeypatch):
    fast = [calibrate_sigma(*args) for args in CALIBRATION_INPUTS]
    monkeypatch.setattr(dp, "_integer_rdp", _scipy_integer_rdp)
    oracle = [calibrate_sigma(*args) for args in CALIBRATION_INPUTS]
    assert fast == oracle


def test_calibration_evaluates_each_sigma_once(monkeypatch):
    sigmas = []

    def spy(q, sigma, steps, delta):
        sigmas.append(sigma)
        return epsilon_after(q, sigma, steps, delta)

    monkeypatch.setattr(dp, "epsilon_after", spy)
    for args in CALIBRATION_INPUTS:
        sigmas.clear()
        result = calibrate_sigma(*args)
        assert len(sigmas) == len(set(sigmas)), args
        assert result in sigmas


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
    ledger = json.loads(canonical_json(acc.ledger()))
    back = RdpAccountant.from_ledger(ledger)
    assert back.groups == acc.groups
    np.testing.assert_array_equal(back.rdp_totals(), acc.rdp_totals())


@pytest.mark.parametrize("ledger", [[[0.1, 1.0]], [[0.1, 1.0, 3, 1]], [[0.1, 1.0, 2.5]],
                                    [[0.1, 1.0, True]], [[0.1, None, 3]], 7])
def test_accountant_from_a_malformed_ledger_raises(ledger):
    with pytest.raises((TypeError, ValueError)):
        RdpAccountant.from_ledger(ledger)


def test_accountant_rejects_empty_conversion_and_bad_delta():
    acc = RdpAccountant()
    with pytest.raises(ValidationError):
        acc.to_epsilon(1e-5)
    acc.account_step(1.0, 1.0)
    with pytest.raises(ValidationError):
        acc.to_epsilon(0.0)


@pytest.mark.parametrize("delta", [1.5, 0.0, -0.1])
def test_projected_epsilon_rejects_a_delta_outside_0_1(delta):
    """As to_epsilon does: a delta of 1.5 would give a negative epsilon that
    passes any budget check."""
    acc = RdpAccountant()
    acc.account_step(0.1, 1.0, count=2)
    with pytest.raises(ValidationError, match="delta"):
        acc.projected_epsilon(delta, 0.1, 1.0, 3)


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
