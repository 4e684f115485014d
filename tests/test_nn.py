import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsynth.errors import DivergenceError, ValidationError
from fedsynth.nn import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, BLOCK, AdamState, DenoiserParams,
                         adam_step, forward, init_denoiser, layer_buffers, per_sample_grads,
                         time_embed, TrainingSample)


# ---------------------------------------------------------------------------
# Time embedding


def test_time_embed_t_zero_alternates_zero_one():
    emb = time_embed(0, dim=8)
    np.testing.assert_allclose(emb, [0, 1, 0, 1, 0, 1, 0, 1], atol=0)


def test_time_embed_known_values():
    emb = time_embed(3, dim=4)
    # angles: 3/10000^0 = 3 and 3/10000^(1/2) = 0.03
    expected = [np.sin(3.0), np.cos(3.0), np.sin(0.03), np.cos(0.03)]
    np.testing.assert_allclose(emb, expected, rtol=1e-15)


def test_time_embed_batched_matches_scalar():
    batch = time_embed(np.array([1, 5, 9]), dim=16)
    for i, t in enumerate([1, 5, 9]):
        np.testing.assert_array_equal(batch[i], time_embed(t, dim=16))


def test_time_embed_rejects_odd_dim():
    with pytest.raises(ValidationError):
        time_embed(1, dim=7)


# ---------------------------------------------------------------------------
# Parameter pack


def _tiny_net(rng_seed=0, d_enc=5, emb_shapes=((3,), (4,)), emb_dim=2):
    rng = np.random.default_rng(rng_seed)
    embeddings = [rng.normal(size=(v[0], emb_dim)) for v in emb_shapes]
    return init_denoiser(d_enc, hidden_width=7, n_hidden=2, time_dim=6,
                         embeddings=embeddings, rng=rng)


def test_flatten_from_flat_roundtrip():
    params = _tiny_net()
    flat = params.flat
    assert flat.size == (sum(w.size + b.size for w, b in zip(params.weights, params.biases))
                         + sum(e.size for e in params.embeddings))
    back = DenoiserParams.from_flat(flat, params.manifest())
    np.testing.assert_array_equal(back.flat, flat)
    for w1, w2 in zip(params.weights, back.weights):
        np.testing.assert_array_equal(w1, w2)
    for e1, e2 in zip(params.embeddings, back.embeddings):
        np.testing.assert_array_equal(e1, e2)
    # the layers are views of the one buffer: a write shows up in flat
    back.weights[0][0, 0] = 123.0
    assert back.flat[0] == 123.0 and flat[0] == 123.0
    back.embeddings[-1][-1, -1] = -7.0
    assert flat[-1] == -7.0
    with pytest.raises(ValidationError):
        DenoiserParams.from_flat(flat[:-1], params.manifest())
    with pytest.raises(ValidationError):
        DenoiserParams.from_flat(np.append(flat, 0.0), params.manifest())


def test_init_denoiser_shapes_and_bias_zero():
    params = init_denoiser(5, hidden_width=7, n_hidden=2, time_dim=6,
                           rng=np.random.default_rng(0))
    shapes = [w.shape for w in params.weights]
    assert shapes == [(11, 7), (7, 7), (7, 5)]
    for b in params.biases:
        assert np.all(b == 0.0)


def test_init_denoiser_kaiming_bound():
    params = init_denoiser(5, hidden_width=64, n_hidden=2, time_dim=6,
                           rng=np.random.default_rng(1))
    for w in params.weights:
        bound = np.sqrt(6.0 / w.shape[0])
        assert np.max(np.abs(w)) <= bound


def test_init_denoiser_rejects_tables_wider_than_d_enc():
    tables = [np.zeros((3, 3)), np.zeros((3, 3))]
    with pytest.raises(ValidationError):
        init_denoiser(5, hidden_width=4, n_hidden=1, time_dim=2, embeddings=tables)
    params = init_denoiser(6, hidden_width=4, n_hidden=1, time_dim=2, embeddings=tables)
    assert params.n_numeric == 0


def test_forward_zero_params_outputs_zero():
    params = _tiny_net()
    for w in params.weights:
        w[:] = 0.0
    x = np.random.default_rng(2).normal(size=5)
    np.testing.assert_array_equal(forward(params, x, 3), np.zeros(5))


def test_forward_batch_matches_single():
    params = _tiny_net()
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(4, 5))
    ts = np.array([1, 2, 3, 4])
    batched = forward(params, xs, ts)
    for i in range(4):
        np.testing.assert_allclose(batched[i], forward(params, xs[i], ts[i]),
                                   rtol=1e-14)


def _concatenating_forward(params, x, t):
    """Reference: the first layer reads the concatenated [x_t, time_embed(t)]."""
    xb = np.atleast_2d(np.asarray(x, dtype=np.float64))
    te = np.atleast_2d(time_embed(t, params.time_dim))
    if te.shape[0] == 1 and xb.shape[0] > 1:
        te = np.broadcast_to(te, (xb.shape[0], te.shape[1]))
    h = np.hstack([xb, te])
    last = len(params.weights) - 1
    for li, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if li < last:
            h = np.maximum(h, 0.0)
    return h[0] if np.ndim(x) == 1 else h


def test_forward_with_buffers_equals_forward_without():
    params = _tiny_net()
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(6, 5))
    buffers = layer_buffers(params, 6)
    for t in (7, 2):  # two calls in a row into the same buffers
        out = forward(params, xs, t, buffers)
        assert out is buffers[-1]
        assert np.array_equal(out, forward(params, xs, t))
    ts = np.array([1, 5, 9, 2, 2, 40])
    assert np.array_equal(forward(params, xs, ts, buffers), forward(params, xs, ts))
    single = forward(params, xs[0], 3, layer_buffers(params, 1))
    assert single.shape == (5,)
    assert np.array_equal(single, forward(params, xs[0], 3))


@settings(max_examples=50, deadline=None)
@given(d_enc=st.integers(1, 6), width=st.integers(1, 9), depth=st.integers(1, 3),
       half_time_dim=st.integers(1, 5), n_tables=st.integers(0, 2),
       rows=st.integers(1, 5), per_row_t=st.booleans(), seed=st.integers(0, 2**16))
def test_folded_time_embedding_matches_concatenating_forward(
        d_enc, width, depth, half_time_dim, n_tables, rows, per_row_t, seed):
    rng = np.random.default_rng(seed)
    tables = [rng.normal(size=(3, 1)) for _ in range(min(n_tables, d_enc))]
    params = init_denoiser(d_enc, hidden_width=width, n_hidden=depth,
                           time_dim=2 * half_time_dim, embeddings=tables, rng=rng)
    for b in params.biases:
        b[:] = rng.normal(size=b.shape)
    x = rng.normal(size=(rows, d_enc))
    t = rng.integers(1, 500, size=rows) if per_row_t else int(rng.integers(1, 500))
    expected = _concatenating_forward(params, x, t)
    # layer 1 sums its terms in another order; the atol covers an output
    # entry that cancels to near zero
    tol = {"rtol": 1e-12, "atol": 1e-12 * np.abs(expected).max()}
    np.testing.assert_allclose(forward(params, x, t), expected, **tol)
    t0 = t[0] if per_row_t else t
    np.testing.assert_allclose(forward(params, x[0], t0),
                               _concatenating_forward(params, x[0], t0), **tol)


def test_astype_copies_into_one_buffer_and_from_flat_stays_float64():
    params = _tiny_net()
    low = params.astype(np.float32)
    assert low.manifest() == params.manifest()
    for arr in [low.flat] + low.weights + low.biases + low.embeddings:
        assert arr.dtype == np.float32
    assert np.shares_memory(low.weights[0], low.flat)
    assert not np.shares_memory(low.flat, params.flat)
    np.testing.assert_array_equal(low.flat, params.flat.astype(np.float32))
    # training state never comes back as float32
    back = DenoiserParams.from_flat(low.flat, params.manifest())
    for arr in [back.flat] + back.weights + back.biases + back.embeddings:
        assert arr.dtype == np.float64
    np.testing.assert_array_equal(back.flat, low.flat)


def _abs_forward(params, x, t):
    """The network on |x|, |time row| and |parameters|, without ReLU: each
    output bounds the size of the sums that produce it, which is what
    rounding errors scale with."""
    d = params.d_enc
    w1 = params.weights[0]
    h = (np.abs(x) @ np.abs(w1[:d])
         + np.abs(np.atleast_2d(time_embed(t, params.time_dim))) @ np.abs(w1[d:])
         + np.abs(params.biases[0]))
    for w, b in zip(params.weights[1:], params.biases[1:]):
        h = h @ np.abs(w) + np.abs(b)
    return h


@settings(max_examples=60, deadline=None)
@given(d_enc=st.integers(1, 8), width=st.integers(1, 64), depth=st.integers(1, 3),
       half_time_dim=st.integers(1, 8), n_tables=st.integers(0, 2),
       rows=st.integers(1, 8), per_row_t=st.booleans(), seed=st.integers(0, 2**16))
def test_float32_forward_matches_float64_forward(
        d_enc, width, depth, half_time_dim, n_tables, rows, per_row_t, seed):
    rng = np.random.default_rng(seed)
    tables = [rng.normal(size=(3, 1)) for _ in range(min(n_tables, d_enc))]
    params = init_denoiser(d_enc, hidden_width=width, n_hidden=depth,
                           time_dim=2 * half_time_dim, embeddings=tables, rng=rng)
    for b in params.biases:
        b[:] = rng.normal(size=b.shape)
    low = params.astype(np.float32)
    x = rng.normal(size=(rows, d_enc))
    t = rng.integers(1, 500, size=rows) if per_row_t else int(rng.integers(1, 500))
    expected = forward(params, x, t)
    got = forward(low, x, t, layer_buffers(low, rows))
    assert got.dtype == np.float32 and expected.dtype == np.float64
    # float32 rounds at 6e-8 relative; scaling by the largest output alone
    # fails where an output's sum cancels (4e-5 seen over 40,000 draws),
    # while against the summed magnitudes the error stayed below 1.2e-7
    np.testing.assert_allclose(got, expected, rtol=0,
                               atol=1e-5 * _abs_forward(params, x, t).max())


# ---------------------------------------------------------------------------
# Per-sample gradients vs central finite differences


def _emb_slices(params):
    """The slice of x_in that each embedding table fills, in column order."""
    ends = params.n_numeric + np.cumsum([e.shape[1] for e in params.embeddings])
    return [slice(end - e.shape[1], end) for e, end in zip(params.embeddings, ends)]


def _loss_of_flat(flat, manifest, sample_proto):
    """Loss as a pure function of the flat parameter vector.

    Rebuilds x_in from the (possibly perturbed) embedding tables so the
    finite-difference probe exercises the embedding path too.
    """
    params = DenoiserParams.from_flat(flat, manifest)
    x_in = np.array(sample_proto["x_base"])
    if sample_proto["rows"] is not None:
        for j, (sl, row) in enumerate(zip(_emb_slices(params), sample_proto["rows"])):
            x_in[sl] += sample_proto["coeff"] * params.embeddings[j][row]
    out = forward(params, x_in, sample_proto["t"])
    diff = out - sample_proto["target"]
    return float(diff @ diff) / out.size


def _make_sample(params, rng, with_embeddings=True):
    d = params.d_enc
    x_base = rng.normal(size=d)
    rows = None
    coeff = 0.0
    if with_embeddings and params.embeddings:
        rows = np.array([rng.integers(0, e.shape[0]) for e in params.embeddings])
        coeff = 0.73
        for sl in _emb_slices(params):
            x_base[sl] = 0.0
    proto = {"x_base": x_base, "rows": rows, "coeff": coeff,
             "t": int(rng.integers(1, 20)), "target": rng.normal(size=d)}
    x_in = np.array(x_base)
    if rows is not None:
        for j, (sl, row) in enumerate(zip(_emb_slices(params), rows)):
            x_in[sl] += coeff * params.embeddings[j][row]
    sample = TrainingSample(x_in=x_in, t=proto["t"], target=proto["target"],
                            emb_rows=rows, emb_coeff=coeff)
    return sample, proto


def _fd_grad(flat, manifest, proto, idx, h=1e-6):
    up, dn = np.array(flat), np.array(flat)
    up[idx] += h
    dn[idx] -= h
    return (_loss_of_flat(up, manifest, proto)
            - _loss_of_flat(dn, manifest, proto)) / (2 * h)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_per_sample_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    params = _tiny_net(rng_seed=seed)
    sample, proto = _make_sample(params, rng)
    flat = params.flat
    manifest = params.manifest()
    grads, _ = per_sample_grads(params, [sample])
    g = grads.row(0)
    # probe 40 random coordinates plus every embedding coordinate
    n_net = flat.size - sum(e.size for e in params.embeddings)
    probe = list(rng.choice(n_net, size=40, replace=False))
    probe += list(range(n_net, flat.size))
    for idx in probe:
        fd = _fd_grad(flat, manifest, proto, idx)
        assert g[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_per_sample_gradient_matches_finite_differences_wide_tables():
    """Tables wider than the encoder's 2 columns: the gradient reads each
    table's own width from its shape."""
    rng = np.random.default_rng(11)
    params = _tiny_net(rng_seed=11, d_enc=7, emb_dim=3)
    assert params.n_numeric == 1
    sample, proto = _make_sample(params, rng)
    flat, manifest = params.flat, params.manifest()
    g = per_sample_grads(params, [sample])[0].row(0)
    n_net = flat.size - sum(e.size for e in params.embeddings)
    probe = list(rng.choice(n_net, size=40, replace=False))
    probe += list(range(n_net, flat.size))
    for idx in probe:
        fd = _fd_grad(flat, manifest, proto, idx)
        assert g[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_embedding_gradient_zero_for_unused_rows():
    params = _tiny_net()
    rng = np.random.default_rng(4)
    sample, _ = _make_sample(params, rng)
    grads, _ = per_sample_grads(params, [sample])
    g = grads.row(0)
    n_net = params.flat.size - sum(e.size for e in params.embeddings)
    pos = n_net
    for j, e in enumerate(params.embeddings):
        table_grad = g[pos: pos + e.size].reshape(e.shape)
        pos += e.size
        used = int(sample.emb_rows[j])
        for row in range(e.shape[0]):
            if row != used:
                assert np.all(table_grad[row] == 0.0)
            else:
                assert np.any(table_grad[row] != 0.0)


def test_mean_per_sample_grad_matches_batch_fd():
    """Mean of per-sample grads is the gradient of the mean loss."""
    params = _tiny_net(rng_seed=5)
    rng = np.random.default_rng(6)
    batch, protos = [], []
    for _ in range(4):
        s, p = _make_sample(params, rng, with_embeddings=False)
        batch.append(s)
        protos.append(p)
    grads, mean_loss = per_sample_grads(params, batch)
    mean_grad = np.mean([grads.row(i) for i in range(len(grads))], axis=0)
    flat, manifest = params.flat, params.manifest()
    diff = (forward(params, np.stack([s.x_in for s in batch]), [s.t for s in batch])
            - np.stack([s.target for s in batch]))
    assert mean_loss == pytest.approx(np.mean(diff * diff), rel=1e-12)
    for idx in np.random.default_rng(7).choice(flat.size, 25, replace=False):
        fd = np.mean([_fd_grad(flat, manifest, p, idx) for p in protos])
        assert mean_grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_per_sample_grads_rejects_empty_batch():
    with pytest.raises(ValidationError):
        per_sample_grads(_tiny_net(), [])


def _abs_grad_norm(params, sample):
    """Norm of one sample's gradient with every sum replaced by the sum of
    its terms' magnitudes (|x_in|, |time row|, |target|, |parameters|,
    under the sample's own ReLU pattern). Rounding errors scale with these
    magnitudes; where no sum cancels, this is the gradient's own norm."""
    x = np.concatenate([sample.x_in, time_embed(sample.t, params.time_dim)])
    mags, masks = [np.abs(x)], []
    last = len(params.weights) - 1
    for li, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = x @ w + b
        mag = mags[-1] @ np.abs(w) + np.abs(b)
        if li < last:
            masks.append(z > 0.0)
            x = np.maximum(z, 0.0)
            mags.append(mag * masks[-1])
    delta = (2.0 / params.d_enc) * (mag + np.abs(sample.target))
    sq = 0.0
    for li in range(last, -1, -1):
        sq += (mags[li] @ mags[li] + 1.0) * (delta @ delta)  # weight and bias gradients
        delta = delta @ np.abs(params.weights[li]).T
        if li > 0:
            delta *= masks[li - 1]
    if sample.emb_rows is not None:
        sq += sample.emb_coeff ** 2 * sum(delta[sl] @ delta[sl] for sl in _emb_slices(params))
    return np.sqrt(sq)


@settings(max_examples=40, deadline=None)
@given(n_tables=st.integers(0, 2), size=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
@example(n_tables=0, size=2, seed=560)  # a gradient left small by cancellation
def test_per_sample_grads_batch_matches_single_sample_calls(n_tables, size, seed):
    """Row i of one batched call equals a call on sample i alone, to 1e-12 of
    the row's norm: batched and single matmuls sum in different orders, so
    where the row's norm has cancelled below 1e-2 of the magnitudes its sums
    add up (_abs_grad_norm) the bound is 1e-14 of those magnitudes instead.
    Vocabularies of 2 rows make samples share table rows; the last sample
    always repeats the first sample's rows."""
    rng = np.random.default_rng(seed)
    params = _tiny_net(rng_seed=seed, d_enc=1 + 2 * n_tables,
                       emb_shapes=((2,),) * n_tables)
    batch = [_make_sample(params, rng)[0] for _ in range(size)]
    if n_tables:
        first, last = batch[0], batch[-1]
        batch[-1] = TrainingSample(last.x_in, last.t, last.target,
                                   emb_rows=first.emb_rows, emb_coeff=last.emb_coeff)
    grads, mean_loss = per_sample_grads(params, batch)
    assert len(grads) == size
    losses = []
    for i, (sample, g) in enumerate(zip(batch, grads)):
        single, loss = per_sample_grads(params, [sample])
        ref = single.row(0)
        scale = _abs_grad_norm(params, sample)
        assert np.linalg.norm(ref) <= scale
        tol = 1e-12 * max(np.linalg.norm(ref), 1e-2 * scale)
        assert np.linalg.norm(grads.row(i) - ref) <= tol
        assert abs(g.norm - single[0].norm) <= tol
        losses.append(loss)
    assert mean_loss == pytest.approx(np.mean(losses), rel=1e-12)


def test_per_sample_grads_rejects_mixed_emb_rows():
    params = _tiny_net()
    rng = np.random.default_rng(12)
    with_rows, _ = _make_sample(params, rng)
    without = TrainingSample(with_rows.x_in, with_rows.t, with_rows.target)
    with pytest.raises(ValidationError):
        per_sample_grads(params, [with_rows, without])


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_closed_form():
    n = 6
    rng = np.random.default_rng(8)
    p0 = rng.normal(size=n)
    g = rng.normal(size=n)
    state = AdamState.zeros(n)
    p1 = adam_step(np.array(p0), state, g, 0.01)
    # after bias correction the first step is lr * g / (|g| + eps)
    expected = p0 - 0.01 * g / (np.abs(g) + ADAM_EPS)
    np.testing.assert_allclose(p1, expected, rtol=1e-12)
    assert state.t == 1


def test_adam_two_steps_closed_form():
    p = np.zeros(1)
    state = AdamState.zeros(1)
    g1, g2 = np.array([2.0]), np.array([-1.0])
    p = adam_step(p, state, g1, 0.1)
    p = adam_step(p, state, g2, 0.1)
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    m = (1 - b1) * g1
    v = (1 - b2) * g1**2
    x = -0.1 * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    m = b1 * m + (1 - b1) * g2
    v = b2 * v + (1 - b2) * g2**2
    x = x - 0.1 * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + eps)
    np.testing.assert_allclose(p, x, rtol=1e-12)


def _adam_oracle(flat_params, state, g, lr):
    """The unblocked whole-vector update: a P-sized temporary per operation."""
    state.t += 1
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * g
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * g * g
    m_hat = state.m / (1.0 - ADAM_BETA1 ** state.t)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** state.t)
    flat_params -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@pytest.mark.parametrize("n", [1, 1000, 2 * BLOCK + 123])
def test_adam_blocked_bit_equals_whole_vector_update(n):
    rng = np.random.default_rng(n)
    p = rng.normal(size=n)
    expected, state, oracle = p.copy(), AdamState.zeros(n), AdamState.zeros(n)
    for _ in range(5):
        g = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 2, size=n)
        g[rng.random(n) < 0.1] = 0.0
        adam_step(p, state, g, 0.01)
        _adam_oracle(expected, oracle, g, 0.01)
        assert np.array_equal(p, expected)
        assert np.array_equal(state.m, oracle.m) and np.array_equal(state.v, oracle.v)


def test_adam_step_allocates_less_than_one_parameter_vector():
    n = 2_173_956  # the paper-width denoiser's parameter count
    rng = np.random.default_rng(0)
    p, g, state = rng.normal(size=n), rng.normal(size=n), AdamState.zeros(n)
    tracemalloc.start()
    try:
        adam_step(p, state, g, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < p.nbytes


def test_adam_rejects_nonfinite_gradient():
    state = AdamState.zeros(2)
    with pytest.raises(DivergenceError):
        adam_step(np.zeros(2), state, np.array([np.nan, 0.0]), 0.1)


def test_adam_rejects_shape_mismatch():
    state = AdamState.zeros(2)
    with pytest.raises(ValidationError):
        adam_step(np.zeros(3), state, np.zeros(2), 0.1)
