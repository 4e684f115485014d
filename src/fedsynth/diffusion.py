"""Gaussian diffusion core: schedule, forward noising, reverse sampling.

Steps are 1-indexed (t = 1..T) to match the usual process notation; the
schedule stores beta_t, alpha_t = 1 - beta_t, and the cumulative product
alpha_bar_t. The reverse step uses the fixed variance sigma_t^2 = beta_t and
adds no noise at the terminal step t = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ValidationError

DEFAULT_TIMESTEPS = 500
# endpoints of the linear beta schedule (Ho et al. 2020)
BETA_START = 1e-4
BETA_END = 0.02


@dataclass(frozen=True)
class NoiseSchedule:
    """Immutable forward-process coefficients for T steps."""

    betas: np.ndarray

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 1:
            raise ValidationError("schedule needs at least one beta")
        if np.any(betas <= 0.0) or np.any(betas >= 1.0):
            raise ValidationError("betas must lie strictly inside (0, 1)")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alphas", 1.0 - betas)
        object.__setattr__(self, "alpha_bars", np.cumprod(1.0 - betas))

    @property
    def timesteps(self) -> int:
        return self.betas.size

    def _check_t(self, t: int) -> int:
        t = int(t)
        if not 1 <= t <= self.timesteps:
            raise ValidationError(f"step {t} outside 1..{self.timesteps}")
        return t

    def beta(self, t: int) -> float:
        return float(self.betas[self._check_t(t) - 1])

    def alpha(self, t: int) -> float:
        return float(self.alphas[self._check_t(t) - 1])

    def alpha_bar(self, t: int) -> float:
        return float(self.alpha_bars[self._check_t(t) - 1])


def linear_schedule(timesteps: int = DEFAULT_TIMESTEPS) -> NoiseSchedule:
    """Betas linearly spaced from BETA_START (t=1) to BETA_END (t=T)."""
    if timesteps < 1:
        raise ValidationError("timesteps must be >= 1")
    if timesteps == 1:
        betas = np.array([BETA_START])
    else:
        betas = np.linspace(BETA_START, BETA_END, timesteps)
    return NoiseSchedule(betas)


def q_sample(x0, t: int, eps, schedule: NoiseSchedule) -> np.ndarray:
    """Closed-form forward draw: sqrt(abar_t) x0 + sqrt(1 - abar_t) eps."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != x0.shape:
        raise ValidationError(f"noise shape {eps.shape} != x0 shape {x0.shape}")
    abar = schedule.alpha_bar(t)
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps


def make_training_example(x0, rng, schedule: NoiseSchedule):
    """Draw (x_t, t, eps): t uniform on {1..T}, eps standard normal."""
    x0 = np.asarray(x0, dtype=np.float64)
    t = int(rng.integers(1, schedule.timesteps + 1))
    eps = rng.standard_normal(x0.shape)
    return q_sample(x0, t, eps, schedule), t, eps


def p_sample_step(denoise_fn, x_t, t: int, schedule: NoiseSchedule, rng) -> np.ndarray:
    """One ancestral reverse step from x_t to x_{t-1}.

    ``denoise_fn(x, t)`` predicts the forward noise. The posterior mean is
    (x_t - beta_t/sqrt(1-abar_t) * eps_hat) / sqrt(alpha_t); Gaussian noise
    with std sqrt(beta_t) is added except at t = 1.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    t = schedule._check_t(t)
    beta = schedule.beta(t)
    alpha = schedule.alpha(t)
    abar = schedule.alpha_bar(t)
    eps_hat = np.asarray(denoise_fn(x_t, t), dtype=np.float64)
    mean = (x_t - beta / np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(alpha)
    if t > 1:
        mean = mean + np.sqrt(beta) * rng.standard_normal(x_t.shape)
    if not np.all(np.isfinite(mean)):
        raise DivergenceError(f"non-finite reverse sample at step {t}")
    return mean


def generate(denoise_fn, n_rows: int, d_enc: int, schedule: NoiseSchedule,
             rng) -> np.ndarray:
    """Sample n_rows encoded rows by full reverse diffusion from x_T ~ N(0, I)."""
    if n_rows < 1:
        raise ValidationError("n_rows must be >= 1")
    x = rng.standard_normal((n_rows, d_enc))
    for t in range(schedule.timesteps, 0, -1):
        x = p_sample_step(denoise_fn, x, t, schedule, rng)
    return x
