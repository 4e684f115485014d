"""Differential privacy machinery for gradient training.

Implements per-sample L2 clipping, the subsampled Gaussian mechanism (noise
std sigma*C on the clipped gradient sum, then averaged), Renyi-DP accounting
with conversion to (epsilon, delta), and bisection calibration of the noise
multiplier to a target budget. ``privatize`` clips by scaling: it takes each
sample's norm from the layer factors of a PerSampleGrads and forms the
clipped sum as one weighted sum, so no per-sample gradient is ever built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import CalibrationError, ValidationError
from .nn import GradientVector, PerSampleGrads, blocks

DEFAULT_CLIP_NORM = 1.0
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2.0

# Orders are dense where the conversion optimum usually lies, then sparse.
DEFAULT_ORDERS = np.concatenate([
    np.linspace(1.25, 10.0, 36),
    np.arange(11.0, 65.0),
    np.array([128.0, 256.0, 512.0]),
])


@dataclass(frozen=True)
class DpConfig:
    """Privacy switches for a training run.

    ``epsilon = inf`` with no ``noise_multiplier`` disables DP entirely
    (no clipping, plain uniform batches). Setting ``noise_multiplier``
    explicitly (even 0.0) turns the clip+noise mechanism on; a finite
    ``epsilon`` additionally enables accounting, budget enforcement, and —
    when no multiplier is given — calibration. ``delta`` defaults to
    1/N_client at accounting time.
    """

    epsilon: float = math.inf
    delta: float | None = None
    clip_norm: float = DEFAULT_CLIP_NORM
    noise_multiplier: float | None = None

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValidationError("epsilon target must be positive")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ValidationError("delta must lie in (0, 1)")
        if not self.clip_norm > 0.0:
            raise ValidationError("clip norm must be positive")
        if self.noise_multiplier is not None and self.noise_multiplier < 0.0:
            raise ValidationError("noise multiplier must be >= 0")

    @property
    def mechanism_active(self) -> bool:
        """True when gradients are clipped and noised."""
        return math.isfinite(self.epsilon) or self.noise_multiplier is not None

    @property
    def accounting_active(self) -> bool:
        """True when an epsilon budget is tracked and enforced."""
        return math.isfinite(self.epsilon)


def clip(grad: GradientVector, clip_norm: float) -> GradientVector:
    """Rescale the gradient onto the L2 ball of radius ``clip_norm``."""
    if not clip_norm > 0.0:
        raise ValidationError("clip norm must be positive")
    if not np.all(np.isfinite(grad.values)):
        raise ValidationError("cannot clip a non-finite gradient")
    if grad.norm <= clip_norm:
        return grad
    values = grad.values * (clip_norm / grad.norm)
    # a single float rescale can land one ulp outside the ball; contract
    # until the recomputed norm honours the bound
    actual = float(np.linalg.norm(values))
    while actual > clip_norm:
        values = values * (clip_norm / actual)
        actual = float(np.linalg.norm(values))
    return GradientVector(values, norm=clip_norm)


def clip_scales(per_sample: PerSampleGrads, clip_norm: float) -> np.ndarray:
    """Per-sample factors s_i = min(1, C / ||g_i||) that put each s_i g_i in the ball.

    C is contracted by (P + 8) unit roundoffs: to first order that bounds the
    rounding of the factored norm (at most P + 2 terms) together with that of
    a norm recomputed from the P entries of s_i g_i, so the recomputed norm
    never exceeds C either.
    """
    if not clip_norm > 0.0:
        raise ValidationError("clip norm must be positive")
    if not np.all(np.isfinite(per_sample.norms)):
        raise ValidationError("cannot clip a non-finite gradient")
    bound = clip_norm * (1.0 - (per_sample.size + 8) * _UNIT_ROUNDOFF)
    return bound / np.maximum(per_sample.norms, bound)


def privatize(per_sample: PerSampleGrads, clip_norm: float, sigma: float,
              rng) -> GradientVector:
    """Clipped, noised batch gradient.

    Mechanism: (1/B) [sum_i s_i g_i + N(0, (sigma*C)^2 I)], with s_i from
    ``clip_scales``. With sigma = 0 no draw is made, so the RNG is untouched.
    """
    if not per_sample:
        raise ValidationError("privatize needs a non-empty batch")
    if sigma < 0.0:
        raise ValidationError("sigma must be >= 0")
    total = per_sample.weighted_sum(clip_scales(per_sample, clip_norm))
    if sigma > 0.0:
        # drawn block by block into one scratch: the same N(0, 1) stream as
        # one P-sized draw, with no P-sized noise buffer
        for s, (noise,) in blocks(total.size, 1):
            rng.standard_normal(out=noise)
            noise *= sigma * clip_norm
            acc = total[s]
            acc += noise
    total /= len(per_sample)
    return GradientVector(total)


# ---------------------------------------------------------------------------
# Renyi-DP accounting for the subsampled Gaussian mechanism


def _rdp_integer_order(q: float, sigma: float, alpha: int) -> float:
    """log sum_k C(alpha, k) (1-q)^(alpha-k) q^k e^(k(k-1)/(2 sigma^2)), over alpha-1."""
    k = np.arange(alpha + 1)
    terms = (gammaln(alpha + 1) - gammaln(k + 1) - gammaln(alpha - k + 1)
             + k * (k - 1) / (2.0 * sigma * sigma)
             + (alpha - k) * math.log1p(-q) + k * math.log(q))
    return float(logsumexp(terms)) / (alpha - 1)


def rdp_subsampled_gaussian(q: float, sigma: float, alpha: float,
                            integer_rdp=None) -> float:
    """Per-step Renyi divergence bound at order ``alpha``.

    q = 1 gives the plain Gaussian value alpha/(2 sigma^2). For q < 1 and
    integer alpha the binomial-expansion bound is evaluated in log space;
    fractional orders interpolate the log-moment (alpha-1)*RDP linearly
    between the neighbouring integers (with a zero moment at alpha = 1),
    which upper-bounds the true convex log-moment. ``integer_rdp(k)``, when
    given, must return that integer-order bound for this (q, sigma); a caller
    evaluating many orders passes a memoised one so each is computed once.
    """
    if not 0.0 < q <= 1.0:
        raise ValidationError("sampling rate q must lie in (0, 1]")
    if not sigma > 0.0:
        raise ValidationError("sigma must be positive for accounting")
    if not alpha > 1.0:
        raise ValidationError("Renyi order must exceed 1")
    if q == 1.0:
        return alpha / (2.0 * sigma * sigma)
    if integer_rdp is None:
        integer_rdp = functools.partial(_rdp_integer_order, q, sigma)
    if float(alpha).is_integer():
        return integer_rdp(int(alpha))
    lo = math.floor(alpha)
    hi = lo + 1
    kappa_lo = 0.0 if lo == 1 else (lo - 1) * integer_rdp(lo)
    kappa_hi = (hi - 1) * integer_rdp(hi)
    frac = alpha - lo
    kappa = (1.0 - frac) * kappa_lo + frac * kappa_hi
    return kappa / (alpha - 1.0)


@dataclass
class RdpAccountant:
    """Composable RDP ledger over (q, sigma) step groups.

    Identical steps are tracked as a count and multiplied out, so "k equal
    steps = k times one step" holds exactly rather than to float round-off.
    """

    orders: np.ndarray = field(default_factory=lambda: DEFAULT_ORDERS.copy())
    groups: dict = field(default_factory=dict)

    def __post_init__(self):
        orders = np.asarray(self.orders, dtype=np.float64)
        if np.any(orders <= 1.0) or np.any(np.diff(orders) <= 0):
            raise ValidationError("orders must be sorted and all > 1")
        self.orders = orders
        self._per_step_cache: dict = {}

    @property
    def steps(self) -> int:
        return sum(self.groups.values())

    def _per_step(self, key: tuple) -> np.ndarray:
        """Per-order RDP of one (q, sigma) step, computed once per key.

        Fractional orders share their integer neighbours, so each integer
        order is evaluated once per key.
        """
        if key not in self._per_step_cache:
            integer_rdp = functools.cache(functools.partial(_rdp_integer_order, *key))
            self._per_step_cache[key] = np.array(
                [rdp_subsampled_gaussian(key[0], key[1], a, integer_rdp)
                 for a in self.orders])
        return self._per_step_cache[key]

    def account_step(self, q: float, sigma: float, count: int = 1) -> None:
        if count < 1:
            raise ValidationError("step count must be >= 1")
        key = (float(q), float(sigma))
        self._per_step(key)  # rejects a bad (q, sigma) here, not at a later query
        self.groups[key] = self.groups.get(key, 0) + int(count)

    def rdp_totals(self) -> np.ndarray:
        total = np.zeros_like(self.orders)
        for key, count in self.groups.items():
            total += count * self._per_step(key)
        return total

    def to_epsilon(self, delta: float) -> tuple:
        """Classic RDP->DP conversion: min over orders of RDP + log(1/delta)/(a-1)."""
        if not 0.0 < delta < 1.0:
            raise ValidationError("delta must lie in (0, 1)")
        if self.steps == 0:
            raise ValidationError("cannot convert an empty accountant")
        eps = self.rdp_totals() + math.log(1.0 / delta) / (self.orders - 1.0)
        best = int(np.argmin(eps))
        return float(eps[best]), float(self.orders[best])

    def projected_epsilon(self, delta: float, q: float, sigma: float,
                          extra_steps: int) -> float:
        """Budget if ``extra_steps`` more (q, sigma) steps were taken now."""
        if extra_steps < 1:
            raise ValidationError("extra_steps must be >= 1")
        totals = self.rdp_totals() + extra_steps * self._per_step((float(q), float(sigma)))
        eps = totals + math.log(1.0 / delta) / (self.orders - 1.0)
        return float(np.min(eps))

    # -- checkpoint round-trip ----------------------------------------------

    def state_arrays(self) -> dict:
        keys = sorted(self.groups)
        return {
            "qs": np.array([k[0] for k in keys]),
            "sigmas": np.array([k[1] for k in keys]),
            "counts": np.array([self.groups[k] for k in keys], dtype=np.int64),
        }

    @classmethod
    def from_state_arrays(cls, qs, sigmas, counts, orders=None) -> "RdpAccountant":
        acc = cls() if orders is None else cls(orders)
        for q, sigma, count in zip(qs, sigmas, counts):
            acc.account_step(float(q), float(sigma), int(count))
        return acc


def epsilon_after(q: float, sigma: float, steps: int, delta: float) -> float:
    """Budget consumed by ``steps`` identical subsampled-Gaussian steps."""
    acc = RdpAccountant()
    acc.account_step(q, sigma, count=steps)
    return acc.to_epsilon(delta)[0]


def calibrate_sigma(target_epsilon: float, delta: float, q: float, steps: int,
                    bracket: tuple = (1e-2, 1e4)) -> float:
    """Smallest noise multiplier whose planned budget lands within 1% below
    ``target_epsilon`` (never above), found by geometric bisection.
    """
    if not (math.isfinite(target_epsilon) and target_epsilon > 0.0):
        raise ValidationError("calibration needs a positive finite epsilon target")
    if steps < 1:
        raise ValidationError("planned step count must be >= 1")
    lo, hi = bracket
    if epsilon_after(q, hi, steps, delta) > target_epsilon:
        raise CalibrationError(
            f"even sigma = {hi} exceeds epsilon target {target_epsilon}")
    if epsilon_after(q, lo, steps, delta) <= target_epsilon:
        return lo
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if epsilon_after(q, mid, steps, delta) > target_epsilon:
            lo = mid
        else:
            hi = mid
            if epsilon_after(q, hi, steps, delta) >= 0.99 * target_epsilon:
                break
        if hi / lo < 1.0 + 1e-12:
            break
    return hi
