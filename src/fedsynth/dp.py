"""Differential privacy machinery for gradient training.

Implements per-sample L2 clipping, the subsampled Gaussian mechanism (noise
std sigma*C on the clipped gradient sum, then averaged), Renyi-DP accounting
with conversion to (epsilon, delta), and bisection calibration of the noise
multiplier to a target budget. ``privatize`` clips by scaling: it takes each
sample's norm from the layer factors of a PerSampleGrads and forms the
clipped sum as one weighted sum, so no per-sample gradient is ever built.

The accountant's log-sum-exp is ``_logsumexp``, a 1-d copy of the steps of
scipy 1.17's ``scipy.special.logsumexp`` in the same order and on the same
1-element arrays. scipy's call spends most of its time in array-API
dispatch, paid once per integer order, so the copy makes each (q, sigma)
key several times cheaper while every sigma and epsilon stays bit-identical
to scipy's. It is not vectorised across orders on purpose: padding the
orders to one 2-d array changes NumPy's pairwise-sum grouping and moves the
results in the last bits. Its log(n!) table comes from ``_log_factorial``,
a copy of the steps of ``scipy.special.gammaln`` at integer arguments, so
the package never imports scipy.special (24 MB of resident memory and
about 0.3 s of start-up).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, ValidationError, require_number
from .nn import PerSampleGrads, blocks

DEFAULT_CLIP_NORM = 1.0
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2.0

# Orders are dense where the conversion optimum usually lies, then sparse.
DEFAULT_ORDERS = np.concatenate([
    np.linspace(1.25, 10.0, 36),
    np.arange(11.0, 65.0),
    np.array([128.0, 256.0, 512.0]),
])
# cephes' Stirling-series coefficients for lgam, highest power first
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LOG_SQRT_2PI = 0.91893853320467274178


def _log_factorial(n: int) -> float:
    """log(n!), bit-equal to ``scipy.special.gammaln(n + 1)``.

    These are the steps cephes' ``lgam`` takes at an integer x = n + 1, in
    the same order, with the same constants and libm's log: below 13 the
    log of the product (x-1)(x-2)...2, above it Stirling's series with a
    degree-4 correction in 1/x^2 (3 terms from x = 1000, none from 1e8).
    ``math.lgamma`` is a different algorithm and differs in the last bits.
    """
    x = float(n + 1)
    if x < 13.0:
        z = 1.0
        u = x - 1.0
        while u >= 2.0:
            z *= u
            u -= 1.0
        return math.log(z)
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    poly = _LGAM_A[0]
    for coef in _LGAM_A[1:]:
        poly = poly * p + coef
    return q + poly / x


# log(n!) for n = 0 .. the largest Renyi order, DEFAULT_ORDERS' last
_LOG_FACTORIAL = np.array([_log_factorial(n) for n in range(int(DEFAULT_ORDERS[-1]) + 1)])
# (lo, hi) noise multipliers between which calibration bisects
SIGMA_BRACKET = (1e-2, 1e4)


@dataclass(frozen=True)
class DpConfig:
    """Privacy switches for a training run.

    ``epsilon = inf`` with no ``noise_multiplier`` disables DP entirely
    (no clipping, plain uniform batches). Setting ``noise_multiplier``
    explicitly (even 0.0) turns the clip+noise mechanism on; a finite
    ``epsilon`` additionally enables accounting, budget enforcement, and —
    when no multiplier is given — calibration. ``delta`` defaults to
    1/N_client at accounting time (``client_delta``).
    """

    epsilon: float = math.inf
    delta: float | None = None
    clip_norm: float = DEFAULT_CLIP_NORM
    noise_multiplier: float | None = None

    def __post_init__(self):
        for name in ("epsilon", "delta", "clip_norm", "noise_multiplier"):
            if getattr(self, name) is not None:
                require_number(getattr(self, name), f"dp.{name}")
        if not self.epsilon > 0.0:
            raise ValidationError("epsilon target must be positive")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ValidationError("delta must lie in (0, 1)")
        if not 0.0 < self.clip_norm < math.inf:
            raise ValidationError("clip norm must be positive and finite")
        if self.noise_multiplier is not None and not 0.0 <= self.noise_multiplier < math.inf:
            raise ValidationError("noise multiplier must be >= 0 and finite")

    @property
    def mechanism_active(self) -> bool:
        """True when gradients are clipped and noised."""
        return math.isfinite(self.epsilon) or self.noise_multiplier is not None

    @property
    def accounting_active(self) -> bool:
        """True when an epsilon budget is tracked and enforced."""
        return math.isfinite(self.epsilon)

    def client_delta(self, client_id: int, n_samples: int) -> float:
        """The delta a client's budget is converted at: ``delta``, or 1/N_client."""
        if self.delta is not None:
            return self.delta
        if n_samples < 2:
            raise ValidationError(
                f"client {client_id} holds {n_samples} row(s), but the default "
                "dp.delta = 1/rows needs at least 2; set dp.delta")
        return 1.0 / n_samples


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
              rng, out: np.ndarray | None = None) -> np.ndarray:
    """Clipped, noised batch gradient as one float64 P-vector.

    Mechanism: (1/B) [sum_i s_i g_i + N(0, (sigma*C)^2 I)], with s_i from
    ``clip_scales``. With sigma = 0 no draw is made, so the RNG is untouched.
    The result is written into ``out`` when given (see
    ``PerSampleGrads.weighted_sum``).
    """
    if not per_sample:
        raise ValidationError("privatize needs a non-empty batch")
    if sigma < 0.0:
        raise ValidationError("sigma must be >= 0")
    total = per_sample.weighted_sum(clip_scales(per_sample, clip_norm), out)
    if sigma > 0.0:
        # drawn block by block into one scratch: the same N(0, 1) stream as
        # one P-sized draw, with no P-sized noise buffer
        for s, (noise,) in blocks(total.size, 1):
            rng.standard_normal(out=noise)
            noise *= sigma * clip_norm
            acc = total[s]
            acc += noise
    total /= len(per_sample)
    return total


# ---------------------------------------------------------------------------
# Renyi-DP accounting for the subsampled Gaussian mechanism


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-d float array, which it overwrites.

    The steps and their order are scipy 1.17's: the maxima are counted and
    taken out of the sum, which is then scaled by their count m. scipy's
    fallback for a non-finite result is left out: for these terms it gives
    the same inf or nan.
    """
    a_max = np.max(a, axis=(0,), keepdims=True)
    is_max = a == a_max
    m = np.sum(is_max, axis=(0,), keepdims=True, dtype=a.dtype)
    a[is_max] = -np.inf
    a -= a_max
    s = np.sum(np.exp(a, out=a), axis=(0,), keepdims=True, dtype=a.dtype) / m
    return float((np.log1p(s) + np.log(m) + a_max)[0])


def _integer_rdp(q: float, sigma: float):
    """Memoised alpha -> integer-order RDP bound of one (q, sigma) step, 2 <= alpha <= 512.

    The order-alpha bound is log sum_k C(alpha, k) (1-q)^(alpha-k) q^k
    e^(k(k-1)/(2 sigma^2)), over alpha-1. The per-key vectors
    k(k-1)/(2 sigma^2), k log(1-q) and k log q are built once here and each
    order reads slices of them.
    """
    k = np.arange(len(_LOG_FACTORIAL))
    quad = k * (k - 1) / (2.0 * sigma * sigma)
    keep = k * math.log1p(-q)
    pick = k * math.log(q)

    @functools.cache
    def rdp(alpha: int) -> float:
        terms = (_LOG_FACTORIAL[alpha] - _LOG_FACTORIAL[:alpha + 1]
                 - _LOG_FACTORIAL[alpha::-1]
                 + quad[:alpha + 1] + keep[alpha::-1] + pick[:alpha + 1])
        return _logsumexp(terms) / (alpha - 1)
    return rdp


def _rdp_curve(q: float, sigma: float, orders=DEFAULT_ORDERS) -> np.ndarray:
    """Per-step Renyi divergence bound of one (q, sigma) step at each of ``orders``.

    q = 1 gives the plain Gaussian value alpha/(2 sigma^2). For q < 1 integer
    orders take the binomial-expansion bound of ``_integer_rdp``, each
    evaluated once; fractional orders interpolate the log-moment
    (alpha-1)*RDP linearly between the neighbouring integers (with a zero
    moment at alpha = 1), which upper-bounds the true convex log-moment.
    Every order must lie in (1, 512], the orders the log(n!) table covers.
    """
    orders = np.asarray(orders, dtype=np.float64)
    if not 0.0 < q <= 1.0:
        raise ValidationError("sampling rate q must lie in (0, 1]")
    if not sigma > 0.0:
        raise ValidationError("sigma must be positive for accounting")
    if not np.all((orders > 1.0) & (orders <= DEFAULT_ORDERS[-1])):
        raise ValidationError(f"Renyi orders must lie in (1, {DEFAULT_ORDERS[-1]:g}]")
    if q == 1.0:
        return orders / (2.0 * sigma * sigma)
    integer_rdp = _integer_rdp(q, sigma)
    curve = []
    for alpha in orders.tolist():
        lo = math.floor(alpha)
        if alpha == lo:
            curve.append(integer_rdp(lo))
            continue
        kappa_lo = 0.0 if lo == 1 else (lo - 1) * integer_rdp(lo)
        kappa_hi = lo * integer_rdp(lo + 1)
        frac = alpha - lo
        curve.append(((1.0 - frac) * kappa_lo + frac * kappa_hi) / (alpha - 1.0))
    return np.array(curve)


def rdp_subsampled_gaussian(q: float, sigma: float, alpha: float) -> float:
    """Per-step Renyi divergence bound at order ``alpha``: ``_rdp_curve`` at one order."""
    return float(_rdp_curve(q, sigma, [alpha])[0])


def _epsilons(rdp: np.ndarray, delta: float) -> np.ndarray:
    """Classic RDP->DP conversion at each of DEFAULT_ORDERS: RDP + log(1/delta)/(a-1)."""
    if not 0.0 < delta < 1.0:
        raise ValidationError("delta must lie in (0, 1)")
    return rdp + math.log(1.0 / delta) / (DEFAULT_ORDERS - 1.0)


class RdpAccountant:
    """Composable RDP ledger over (q, sigma) step groups, at the orders DEFAULT_ORDERS.

    Identical steps are tracked as a count and multiplied out, so "k equal
    steps = k times one step" holds exactly rather than to float round-off.
    """

    def __init__(self):
        self.groups: dict = {}
        self._per_step_cache: dict = {}

    @property
    def steps(self) -> int:
        return sum(self.groups.values())

    def _per_step(self, key: tuple) -> np.ndarray:
        """``_rdp_curve`` of one (q, sigma) step, computed once per key."""
        if key not in self._per_step_cache:
            self._per_step_cache[key] = _rdp_curve(*key)
        return self._per_step_cache[key]

    def account_step(self, q: float, sigma: float, count: int = 1) -> None:
        if count < 1:
            raise ValidationError("step count must be >= 1")
        key = (float(q), float(sigma))
        self._per_step(key)  # rejects a bad (q, sigma) here, not at a later query
        self.groups[key] = self.groups.get(key, 0) + int(count)

    def rdp_totals(self) -> np.ndarray:
        total = np.zeros_like(DEFAULT_ORDERS)
        for key, count in self.groups.items():
            total += count * self._per_step(key)
        return total

    def to_epsilon(self, delta: float) -> tuple:
        """The smallest epsilon over DEFAULT_ORDERS under ``_epsilons``, and its order."""
        if self.steps == 0:
            raise ValidationError("cannot convert an empty accountant")
        eps = _epsilons(self.rdp_totals(), delta)
        best = int(np.argmin(eps))
        return float(eps[best]), float(DEFAULT_ORDERS[best])

    def projected_epsilon(self, delta: float, q: float, sigma: float,
                          extra_steps: int) -> float:
        """Budget if ``extra_steps`` more (q, sigma) steps were taken now."""
        if extra_steps < 1:
            raise ValidationError("extra_steps must be >= 1")
        totals = self.rdp_totals() + extra_steps * self._per_step((float(q), float(sigma)))
        return float(np.min(_epsilons(totals, delta)))

    def ledger(self) -> list:
        """The [q, sigma, count] groups in sorted order, as ``from_ledger`` reads them."""
        return [[q, sigma, count] for (q, sigma), count in sorted(self.groups.items())]

    @classmethod
    def from_ledger(cls, ledger) -> "RdpAccountant":
        """The accountant of a list of [q, sigma, count] groups. A count that is
        not an integer raises TypeError, so a damaged ledger cannot drop steps."""
        acc = cls()
        for q, sigma, count in ledger:
            if isinstance(count, bool) or not isinstance(count, int):
                raise TypeError(f"step count {count!r} is not an integer")
            acc.account_step(float(q), float(sigma), count)
        return acc


def epsilon_after(q: float, sigma: float, steps: int, delta: float) -> float:
    """Budget consumed by ``steps`` identical subsampled-Gaussian steps."""
    acc = RdpAccountant()
    acc.account_step(q, sigma, count=steps)
    return acc.to_epsilon(delta)[0]


def calibrate_sigma(target_epsilon: float, delta: float, q: float, steps: int) -> float:
    """Smallest noise multiplier whose planned budget lands within 1% below
    ``target_epsilon`` (never above), found by geometric bisection in SIGMA_BRACKET.
    """
    if not (math.isfinite(target_epsilon) and target_epsilon > 0.0):
        raise ValidationError("calibration needs a positive finite epsilon target")
    if steps < 1:
        raise ValidationError("planned step count must be >= 1")
    lo, hi = SIGMA_BRACKET
    if epsilon_after(q, hi, steps, delta) > target_epsilon:
        raise CalibrationError(
            f"even sigma = {hi} exceeds epsilon target {target_epsilon}")
    if epsilon_after(q, lo, steps, delta) <= target_epsilon:
        return lo
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        eps_mid = epsilon_after(q, mid, steps, delta)
        if eps_mid > target_epsilon:
            lo = mid
        else:
            hi = mid
            if eps_mid >= 0.99 * target_epsilon:
                break
        if hi / lo < 1.0 + 1e-12:
            break
    return hi
