"""Gaussian diffusion core: schedule, forward noising, reverse sampling.

Steps are 1-indexed (t = 1..T) to match the usual process notation; the
schedule stores beta_t, alpha_t = 1 - beta_t, and the cumulative product
alpha_bar_t. The reverse step uses the fixed variance sigma_t^2 = beta_t and
adds no noise at the terminal step t = 1.

Training draws t from all T steps; sampling runs the same reverse step on a
respaced schedule of SAMPLE_STEPS steps (Nichol & Dhariwal 2021):
``respace`` keeps alpha_bar at the steps tau_1 = 1 < ... < tau_S = T and
recomputes each beta from consecutive alpha_bars, and the denoiser is asked
about the original step tau_i at respaced step i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ValidationError

DEFAULT_TIMESTEPS = 500
# largest T a config may ask for: the linear schedule's alpha_bar_T is about
# exp(-0.01 T), about 1e-44 here and 0 in float64 from T of about 74,000 on,
# where respacing would divide 0 by 0
MAX_TIMESTEPS = 10_000
# endpoints of the linear beta schedule (Ho et al. 2020)
BETA_START = 1e-4
BETA_END = 0.02
# reverse-chain length used for sampling; a schedule of at most this many
# steps is sampled in full
SAMPLE_STEPS = 50


@dataclass(frozen=True)
class NoiseSchedule:
    """Immutable forward-process coefficients for T steps.

    alpha_bars is the cumulative product of alphas, except on a schedule
    built by ``from_alpha_bars`` (as ``respace`` does), which keeps the
    given alpha_bars exactly; there the two agree to rounding only.
    """

    betas: np.ndarray

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 1:
            raise ValidationError("schedule needs at least one beta")
        if not np.all(np.isfinite(betas)):
            raise ValidationError("betas must be finite")
        if np.any(betas <= 0.0) or np.any(betas >= 1.0):
            raise ValidationError("betas must lie strictly inside (0, 1)")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alphas", 1.0 - betas)
        object.__setattr__(self, "alpha_bars", np.cumprod(1.0 - betas))

    @classmethod
    def from_alpha_bars(cls, alpha_bars) -> "NoiseSchedule":
        """The schedule with these alpha_bars: beta_t = 1 - abar_t / abar_(t-1)
        with abar_0 = 1, so alpha_bars must fall strictly from below 1 and
        stay above 0."""
        alpha_bars = np.asarray(alpha_bars, dtype=np.float64)
        schedule = cls(1.0 - alpha_bars / np.concatenate(([1.0], alpha_bars[:-1])))
        # the cumulative product of 1 - beta would round away from them
        object.__setattr__(schedule, "alpha_bars", alpha_bars)
        return schedule

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
    return NoiseSchedule(np.linspace(BETA_START, BETA_END, timesteps))


def respace(schedule: NoiseSchedule, steps: int) -> tuple[NoiseSchedule, np.ndarray]:
    """The schedule restricted to ``steps`` of its steps, and those steps.

    Returns (respaced, tau): tau = round(linspace(1, T, steps)) holds 1 and
    T, respaced.alpha_bars equals schedule.alpha_bars[tau - 1] exactly, and
    respaced beta_i = 1 - alpha_bar_{tau_i} / alpha_bar_{tau_(i-1)} with
    alpha_bar_{tau_0} = 1, so alpha_bar must stay above 0 at the kept steps
    (see MAX_TIMESTEPS). With steps >= T it returns the schedule itself and
    tau = 1..T.
    """
    T = schedule.timesteps
    if steps >= T:
        return schedule, np.arange(1, T + 1)
    if steps < 2:
        raise ValidationError("respacing needs at least 2 steps")
    tau = np.round(np.linspace(1, T, steps)).astype(np.int64)
    return NoiseSchedule.from_alpha_bars(schedule.alpha_bars[tau - 1]), tau


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
    """Sample n_rows encoded rows by reverse diffusion from x_T ~ N(0, I).

    Runs every step of ``schedule``, from T down to 1, calling
    ``denoise_fn(x, t)`` with the schedule's own step t; to sample on a
    respaced schedule, pass one from ``respace`` and map t to tau[t - 1]
    inside ``denoise_fn``.
    """
    if n_rows < 1:
        raise ValidationError("n_rows must be >= 1")
    x = rng.standard_normal((n_rows, d_enc))
    for t in range(schedule.timesteps, 0, -1):
        x = p_sample_step(denoise_fn, x, t, schedule, rng)
    return x
