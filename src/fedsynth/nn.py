"""Dense denoiser network with manual backprop and per-sample gradients.

The model is a plain MLP: input = [x_t, sinusoidal time embedding], three
ReLU hidden layers, linear output predicting the forward noise. Per-sample
gradients (required for DP clipping) are computed by running backward once
per sample; categorical embedding tables are part of the one parameter buffer
and receive gradient through the x_t that was built from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, ValidationError

DEFAULT_TIME_DIM = 64
DEFAULT_HIDDEN = 1024
DEFAULT_N_HIDDEN = 3


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


@dataclass(frozen=True)
class GradientVector:
    """Flat gradient aligned with DenoiserParams.flatten(); L2 norm cached.

    From ``per_sample_grads``, ``values`` is one row view of the batch's (B, P) array.
    """

    values: np.ndarray
    norm: float = field(default=None)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        if self.norm is None:
            object.__setattr__(self, "norm", float(np.linalg.norm(vals)))

    def __len__(self) -> int:
        return self.values.size


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
        return self.d_enc - 2 * len(self.embeddings)

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
    n_params = sum((i + 1) * o for i, o in dims) + sum(e.size for e in tables)
    params = DenoiserParams.from_flat(np.zeros(n_params), {
        "weights": dims, "embeddings": [e.shape for e in tables], "time_dim": time_dim})
    for w in params.weights:
        bound = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    for dst, src in zip(params.embeddings, tables):
        dst[...] = src
    return params


def forward(params: DenoiserParams, x, t) -> np.ndarray:
    """Predicted noise for input x_t at step t. Pure function.

    ``x`` may be a single row (d_enc,) or a batch (B, d_enc); ``t`` a scalar
    or per-row array.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    if xb.shape[1] != params.d_enc:
        raise ValidationError(f"input width {xb.shape[1]} != d_enc {params.d_enc}")
    te = np.atleast_2d(time_embed(t, params.time_dim))
    if te.shape[0] == 1 and xb.shape[0] > 1:
        te = np.broadcast_to(te, (xb.shape[0], te.shape[1]))
    h = np.hstack([xb, te])
    last = len(params.weights) - 1
    for li, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if li < last:
            h = np.maximum(h, 0.0)
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


def _sample_gradient(params: DenoiserParams, sample: TrainingSample, grads: tuple,
                     i: int) -> float:
    """Loss of one sample; its gradient goes into row ``i`` of the zeroed ``grads`` views."""
    grad_w, grad_b, grad_emb = grads
    te = time_embed(sample.t, params.time_dim)
    h = np.concatenate([np.asarray(sample.x_in, dtype=np.float64), te])
    acts = [h]
    zs = []
    last = len(params.weights) - 1
    for li, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = acts[-1] @ w + b
        zs.append(z)
        if li < last:
            acts.append(np.maximum(z, 0.0))
    out = zs[-1]
    diff = out - sample.target
    loss = float(diff @ diff) / out.size

    delta = (2.0 / out.size) * diff
    for li in range(last, -1, -1):
        np.outer(acts[li], delta, out=grad_w[li][i])
        grad_b[li][i] = delta
        delta = params.weights[li] @ delta
        if li > 0:
            delta = delta * (zs[li - 1] > 0)
    dx_in = delta[: params.d_enc]

    if sample.emb_rows is not None and len(params.embeddings) > 0:
        n_num = params.n_numeric
        for j, row in enumerate(np.asarray(sample.emb_rows, dtype=np.int64)):
            sl = dx_in[n_num + 2 * j: n_num + 2 * (j + 1)]
            grad_emb[j][i, row] += sample.emb_coeff * sl
    return loss


def per_sample_grads(params: DenoiserParams, batch: list):
    """Gradient of each sample's own loss w.r.t. all parameters.

    The per-sample loss is mean-squared error over the d_enc output
    coordinates; returns one GradientVector per sample (row i of one (B, P)
    array) plus the mean loss.
    """
    if not batch:
        raise ValidationError("per_sample_grads needs a non-empty batch")
    rows = np.zeros((len(batch), params.size))
    layout = _layout(rows, params.manifest())
    grads = []
    losses = np.empty(len(batch))
    for i, sample in enumerate(batch):
        loss = _sample_gradient(params, sample, layout, i)
        if not np.isfinite(loss) or not np.all(np.isfinite(rows[i])):
            raise DivergenceError(f"non-finite loss/gradient at batch sample {i}")
        losses[i] = loss
        grads.append(GradientVector(rows[i]))
    return grads, float(losses.mean())


def batch_loss(params: DenoiserParams, batch: list) -> float:
    """Mean per-sample loss without gradients (for diagnostics and oracles)."""
    total = 0.0
    for sample in batch:
        out = forward(params, sample.x_in, sample.t)
        diff = out - sample.target
        total += float(diff @ diff) / out.size
    return total / len(batch)


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


def adam_step(flat_params: np.ndarray, state: AdamState, grad: GradientVector) -> np.ndarray:
    """One bias-corrected Adam update, in place on ``flat_params`` and ``state``."""
    g = grad.values if isinstance(grad, GradientVector) else np.asarray(grad)
    if not np.all(np.isfinite(g)):
        raise DivergenceError("non-finite gradient passed to the optimizer")
    if g.shape != flat_params.shape:
        raise ValidationError(f"gradient shape {g.shape} != params {flat_params.shape}")
    state.t += 1
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * g
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * g * g
    m_hat = state.m / (1.0 - state.beta1 ** state.t)
    v_hat = state.v / (1.0 - state.beta2 ** state.t)
    flat_params -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return flat_params
