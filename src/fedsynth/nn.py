"""Dense denoiser network with manual backprop and per-sample gradients.

The model is a plain MLP: input = [x_t, sinusoidal time embedding], three
ReLU hidden layers, linear output predicting the forward noise. Per-sample
gradients (required for DP clipping) come from one forward and one backward
pass over the whole batch and are kept as layer factors: each layer's
(B, fan_in) input and (B, fan_out) delta, and per embedding table a one-hot
of the sample's vocabulary row and its slice of the x_t delta. Norms and
weighted sums are computed from those factors, so the (B, P) matrix of
per-sample gradients is never built. The tables are part of the one
parameter buffer and receive gradient through the x_t that was built from them.

Training is float64 throughout: ``DenoiserParams.from_flat`` always yields a
float64 buffer. ``forward`` and ``layer_buffers`` follow the dtype of the
params they are given, so sampling runs the denoiser on a float32 copy
(``DenoiserParams.astype``) while the reverse chain around it stays float64.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ValidationError

DEFAULT_TIME_DIM = 64
DEFAULT_HIDDEN = 1024
DEFAULT_N_HIDDEN = 3
# float64 elements per block of the elementwise P-sized passes (Adam, noise,
# aggregation): a few operand blocks of 256 KiB stay in a core's L2 cache.
BLOCK = 1 << 15


def time_embed(t, dim: int = DEFAULT_TIME_DIM) -> np.ndarray:
    """Sinusoidal timestep embedding.

    Component 2k is sin(t / 10000^(2k/dim)) and component 2k+1 is the cosine
    of the same angle. Accepts a scalar step (returns shape (dim,)) or an
    array of steps (returns shape (len(t), dim)).
    """
    if dim % 2 != 0:
        raise ValidationError("time embedding dimension must be even")
    t_arr = np.asarray(t, dtype=np.float64)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    k = np.arange(dim // 2, dtype=np.float64)
    angles = t_arr[:, None] / np.power(10000.0, 2.0 * k / dim)[None, :]
    out = np.empty((t_arr.size, dim))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out[0] if scalar else out


class GradientVector:
    """Flat gradient aligned with DenoiserParams.flatten(); L2 norm computed on first read.

    A training step never reads the norm of its batch gradient, so building
    one costs no P-sized pass; pass ``norm`` when it is already known.
    """

    def __init__(self, values, norm: float | None = None):
        self.values = np.asarray(values, dtype=np.float64)
        if norm is not None:
            self.norm = norm

    @functools.cached_property
    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def __len__(self) -> int:
        return self.values.size


class PerSampleGrads:
    """A batch's per-sample gradients as layer factors, never as a (B, P) matrix.

    ``factors`` holds one pair (A_k, D_k) of (B, m_k) and (B, n_k) arrays per
    parameter block, in ``_layout`` order; block k of sample i's gradient is
    the (m_k, n_k) outer product of A_k[i] and D_k[i]. Hence
    ||g_i||^2 = sum_k ||A_k[i]||^2 ||D_k[i]||^2, and block k of sum_i w_i g_i
    is A_k^T (w * D_k) (Goodfellow 2015; Li et al. 2022, ghost clipping).
    """

    def __init__(self, factors: list):
        self.factors = [(np.asarray(a, dtype=np.float64), np.asarray(d, dtype=np.float64))
                        for a, d in factors]
        self.norms = np.sqrt(sum(np.einsum("ij,ij->i", a, a) * np.einsum("ij,ij->i", d, d)
                                 for a, d in self.factors))
        self.size = sum(a.shape[1] * d.shape[1] for a, d in self.factors)

    def __len__(self) -> int:
        return len(self.norms)

    def __getitem__(self, i: int) -> "SampleGradient":
        return SampleGradient(self, i)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def weighted_sum(self, weights: np.ndarray) -> np.ndarray:
        """sum_i weights[i] * g_i as one P-vector in ``_layout`` order."""
        weights = np.asarray(weights, dtype=np.float64)[:, None]
        out = np.empty(self.size)
        end = 0
        for a, d in self.factors:
            start, end = end, end + a.shape[1] * d.shape[1]
            np.matmul(a.T, weights * d, out=out[start:end].reshape(a.shape[1], d.shape[1]))
        return out

    def row(self, i: int) -> np.ndarray:
        """Sample i's gradient as one P-vector (for oracles and tests)."""
        return np.concatenate([np.outer(a[i], d[i]).ravel() for a, d in self.factors])


class SampleGradient:
    """Sample i of a PerSampleGrads: ``norm`` at once, ``values`` built on first read.

    Readers of the norm alone, such as clip-fraction counters, then build no
    P-vector.
    """

    def __init__(self, grads: PerSampleGrads, i: int):
        self._grads, self._i = grads, i
        self.norm = float(grads.norms[i])

    @functools.cached_property
    def values(self) -> np.ndarray:
        return self._grads.row(self._i)


def _layout(flat: np.ndarray, manifest: dict) -> tuple:
    """(weights, biases, embeddings) as reshaped views of the last axis of ``flat``.

    The order W1, b1, ..., WL, bL, then each embedding table, is the contract
    for gradients, aggregation, and checkpoints.
    """
    shapes = [s for w in manifest["weights"] for s in (tuple(w), (w[1],))]
    shapes += [tuple(e) for e in manifest["embeddings"]]
    ends = np.cumsum([math.prod(s) for s in shapes])
    if flat.shape[-1] != ends[-1]:
        raise ValidationError(
            f"flat vector length {flat.shape[-1]} does not match manifest ({ends[-1]})")
    blocks = [flat[..., end - math.prod(s): end].reshape(flat.shape[:-1] + s)
              for s, end in zip(shapes, ends)]
    n = 2 * len(manifest["weights"])
    return blocks[0:n:2], blocks[1:n:2], blocks[n:]


@dataclass
class DenoiserParams:
    """All trainable state as views into one float64 buffer ``flat``.

    ``weights`` ((fan_in, fan_out) each), ``biases`` and ``embeddings`` tables
    are views laid out by ``_layout``; writing through one changes ``flatten()``.
    """

    flat: np.ndarray
    weights: list
    biases: list
    embeddings: list
    time_dim: int = DEFAULT_TIME_DIM

    @property
    def d_enc(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def n_numeric(self) -> int:
        return self.d_enc - sum(e.shape[1] for e in self.embeddings)

    @property
    def size(self) -> int:
        return self.flat.size

    def flatten(self) -> np.ndarray:
        return self.flat

    def manifest(self) -> dict:
        return {
            "weights": [list(w.shape) for w in self.weights],
            "embeddings": [list(e.shape) for e in self.embeddings],
            "time_dim": self.time_dim,
        }

    @classmethod
    def from_flat(cls, flat: np.ndarray, manifest: dict) -> "DenoiserParams":
        """Views into ``flat`` (no copy for a float64 array) shaped by ``manifest``."""
        flat = np.asarray(flat, dtype=np.float64)
        weights, biases, embeddings = _layout(flat, manifest)
        return cls(flat, weights, biases, embeddings, int(manifest["time_dim"]))

    def astype(self, dtype) -> "DenoiserParams":
        """A copy of every parameter in ``dtype``, laid out like this one.

        For inference only: ``forward`` on the copy computes in ``dtype``.
        Training reads params from ``from_flat``, which is always float64.
        """
        flat = self.flat.astype(dtype)
        return type(self)(flat, *_layout(flat, self.manifest()), self.time_dim)


def init_denoiser(d_enc: int, hidden_width: int = DEFAULT_HIDDEN,
                  n_hidden: int = DEFAULT_N_HIDDEN, time_dim: int = DEFAULT_TIME_DIM,
                  embeddings: list | None = None, rng=None) -> DenoiserParams:
    """Kaiming-uniform weights (bound sqrt(6/fan_in)), zero biases.

    ``embeddings`` holds the initial per-column tables (copied into the
    buffer); they train jointly with the network from here on.
    """
    rng = np.random.default_rng(rng)
    sizes = [d_enc + time_dim] + [hidden_width] * n_hidden + [d_enc]
    dims = list(zip(sizes[:-1], sizes[1:]))
    tables = [np.asarray(e, dtype=np.float64) for e in (embeddings or [])]
    if sum(e.shape[1] for e in tables) > d_enc:
        raise ValidationError(
            f"embedding widths {[e.shape[1] for e in tables]} exceed d_enc {d_enc}")
    n_params = sum((i + 1) * o for i, o in dims) + sum(e.size for e in tables)
    params = DenoiserParams.from_flat(np.zeros(n_params), {
        "weights": dims, "embeddings": [e.shape for e in tables], "time_dim": time_dim})
    for w in params.weights:
        bound = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    for dst, src in zip(params.embeddings, tables):
        dst[...] = src
    return params


def layer_buffers(params: DenoiserParams, n_rows: int) -> list:
    """One (n_rows, fan_out) output buffer per layer, for ``forward``, in the params' dtype."""
    return [np.empty((n_rows, w.shape[1]), dtype=w.dtype) for w in params.weights]


def forward(params: DenoiserParams, x, t, buffers: list | None = None) -> np.ndarray:
    """Predicted noise for input x_t at step t.

    ``x`` may be a single row (d_enc,) or a batch (B, d_enc); ``t`` a scalar
    or per-row array. The first layer's input is [x_t, time_embed(t)], so it
    is computed as x @ W1[:d_enc] + (time_embed(t) @ W1[d_enc:] + b1): one
    time row per call for a scalar t, one per row for per-row t.

    Each layer is written into ``buffers`` (from ``layer_buffers`` for B
    rows), or into buffers allocated here when none are given. The result is
    (a view of) the last buffer: a call with the same buffers overwrites it,
    so copy it first if it must outlive the next call.

    The arithmetic runs in the dtype of ``params.flat``: ``x`` and the time
    rows are cast to it, and the result has it. float64 params give float64
    throughout; a float32 copy (``DenoiserParams.astype``) gives a float32
    result, which callers that need float64 upcast.
    """
    dtype = params.flat.dtype
    x = np.asarray(x, dtype=dtype)
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    d = params.d_enc
    if xb.shape[1] != d:
        raise ValidationError(f"input width {xb.shape[1]} != d_enc {d}")
    if buffers is None:
        buffers = layer_buffers(params, xb.shape[0])
    w1 = params.weights[0]
    time_emb = np.atleast_2d(time_embed(t, params.time_dim)).astype(dtype, copy=False)
    time_rows = time_emb @ w1[d:]
    time_rows += params.biases[0]
    h = np.matmul(xb, w1[:d], out=buffers[0])
    h += time_rows
    for w, b, out in zip(params.weights[1:], params.biases[1:], buffers[1:]):
        np.maximum(h, 0.0, out=h)
        h = np.matmul(h, w, out=out)
        h += b
    return h[0] if single else h


@dataclass(frozen=True)
class TrainingSample:
    """One denoising example.

    ``x_in`` is the noised input x_t; ``target`` the noise the network should
    predict. When categorical embeddings contributed to x_t, ``emb_rows``
    names the vocabulary row used per categorical column and ``emb_coeff`` is
    d(x_t)/d(embedding entry) — the signal coefficient of x0 at step t — so
    gradient can flow back into the tables.
    """

    x_in: np.ndarray
    t: int
    target: np.ndarray
    emb_rows: np.ndarray | None = None
    emb_coeff: float = 0.0


def _stack(batch: list) -> tuple:
    """(x_in, t, target) of a list of TrainingSample as (B, d_enc), (B,), (B, d_enc)."""
    x_in = np.stack([np.asarray(s.x_in, dtype=np.float64) for s in batch])
    target = np.stack([np.asarray(s.target, dtype=np.float64) for s in batch])
    return x_in, np.array([s.t for s in batch]), target


def per_sample_grads(params: DenoiserParams, batch: list):
    """Gradient of each sample's own loss w.r.t. all parameters.

    The per-sample loss is mean-squared error over the d_enc output
    coordinates; returns the batch's gradients as a PerSampleGrads plus the
    mean loss. Either every sample carries ``emb_rows`` or none does.
    """
    if not batch:
        raise ValidationError("per_sample_grads needs a non-empty batch")
    with_rows = sum(s.emb_rows is not None for s in batch)
    if 0 < with_rows < len(batch):
        raise ValidationError("batch mixes samples with and without emb_rows")
    x_in, t, target = _stack(batch)
    acts = [np.hstack([x_in, time_embed(t, params.time_dim)])]
    zs = []
    last = len(params.weights) - 1
    for li, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = acts[-1] @ w + b
        zs.append(z)
        if li < last:
            acts.append(np.maximum(z, 0.0))
    diff = zs[-1] - target
    losses = np.einsum("ij,ij->i", diff, diff) / diff.shape[1]

    # Dense layer l's per-sample weight gradient is the outer product of its
    # input a_i and output delta_i; its bias gradient is 1 (x) delta_i.
    ones = np.ones((len(batch), 1))
    factors = [None] * (2 * len(params.weights))
    delta = (2.0 / diff.shape[1]) * diff
    for li in range(last, -1, -1):
        factors[2 * li] = (acts[li], delta)
        factors[2 * li + 1] = (ones, delta)
        delta = delta @ params.weights[li].T
        if li > 0:
            delta *= zs[li - 1] > 0

    # d(x_t)/d(table row) is emb_coeff, so a table's gradient is the one-hot
    # of the sample's vocabulary row (x) emb_coeff * its slice of d(x_t).
    coeff = np.array([s.emb_coeff for s in batch])[:, None]
    if with_rows:
        emb_rows = np.stack([np.asarray(s.emb_rows, dtype=np.int64) for s in batch])
    samples = np.arange(len(batch))
    start = params.n_numeric
    for j, table in enumerate(params.embeddings):
        onehot = np.zeros((len(batch), table.shape[0]))
        if with_rows:
            onehot[samples, emb_rows[:, j]] = 1.0
        end = start + table.shape[1]
        factors.append((onehot, coeff * delta[:, start:end]))
        start = end
    grads = PerSampleGrads(factors)
    bad = ~np.isfinite(losses) | ~np.isfinite(grads.norms)
    if bad.any():
        raise DivergenceError(
            f"non-finite loss/gradient at batch sample {int(np.argmax(bad))}")
    return grads, float(losses.mean())


@dataclass
class AdamState:
    """First/second moment state for one optimizer instance."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lr: float = 1e-3

    @classmethod
    def zeros(cls, n_params: int, lr: float = 1e-3) -> "AdamState":
        return cls(np.zeros(n_params), np.zeros(n_params), lr=lr)


def blocks(n: int, scratch_rows: int):
    """Walk range(n) in BLOCK-sized steps, yielding (slice, scratch) pairs.

    ``scratch`` is a (scratch_rows, block length) view of one buffer allocated
    once per walk, so an elementwise kernel run block by block keeps its
    operands in cache and allocates nothing P-sized. Each element sees the
    same operations as in the whole-vector expression, so results are
    bit-equal to it.
    """
    scratch = np.empty((scratch_rows, min(n, BLOCK)))
    for start in range(0, n, BLOCK):
        stop = min(start + BLOCK, n)
        yield slice(start, stop), scratch[:, : stop - start]


def adam_step(flat_params: np.ndarray, state: AdamState, grad: GradientVector) -> np.ndarray:
    """One bias-corrected Adam update, in place on ``flat_params`` and ``state``.

    Runs block by block through one block-sized scratch; each element gets
    exactly the operations, in the order, of the whole-vector update
    m = b1 m + (1-b1) g, v = b2 v + (1-b2) g g,
    p -= lr (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps).
    """
    g = grad.values if isinstance(grad, GradientVector) else np.asarray(grad)
    if not np.all(np.isfinite(g)):
        raise DivergenceError("non-finite gradient passed to the optimizer")
    if g.shape != flat_params.shape:
        raise ValidationError(f"gradient shape {g.shape} != params {flat_params.shape}")
    state.t += 1
    c1, c2 = 1.0 - state.beta1, 1.0 - state.beta2
    bias1, bias2 = 1.0 - state.beta1 ** state.t, 1.0 - state.beta2 ** state.t
    for s, (step, denom) in blocks(g.size, 2):
        m, v, gs, p = state.m[s], state.v[s], g[s], flat_params[s]
        m *= state.beta1
        np.multiply(gs, c1, out=step)
        m += step
        v *= state.beta2
        np.multiply(gs, c2, out=step)
        step *= gs
        v += step
        np.divide(v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += state.eps
        np.divide(m, bias1, out=step)
        step *= state.lr
        step /= denom
        p -= step
    return flat_params
