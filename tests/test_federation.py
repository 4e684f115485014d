import math
import tracemalloc

import numpy as np
import pytest

from fedsynth.diffusion import linear_schedule, make_training_example
from fedsynth.dp import DpConfig, epsilon_after, privatize
from fedsynth.errors import (DivergenceError, PrivacyBudgetError,
                             ValidationError)
from fedsynth import federation
from fedsynth.federation import (ClientDataset, FedConfig, ServerOptState,
                                 client_local_update, fedavg_aggregate,
                                 init_state, make_client_datasets, run_round,
                                 server_opt_aggregate, train)
from fedsynth.data import EncodingPipeline, partition_iid
from fedsynth.fixtures import gaussian_mixture_table
from fedsynth.nn import (BLOCK, AdamState, DenoiserParams, GradientVector, TrainingSample,
                         adam_step, init_denoiser, per_sample_grads)


def _numeric_dataset(n, d, seed):
    rng = np.random.default_rng(seed)
    return ClientDataset(rng.normal(size=(n, d)) * 0.3,
                         np.zeros((n, 0), dtype=np.int64))


def _tiny_setup(n_clients=2, n_per=40, d=3, seed=0):
    datasets = [_numeric_dataset(n_per, d, seed + i) for i in range(n_clients)]
    params = init_denoiser(d, hidden_width=16, n_hidden=2, time_dim=8,
                           rng=np.random.default_rng(seed))
    schedule = linear_schedule(timesteps=20)
    return datasets, params, schedule


# ---------------------------------------------------------------------------
# Aggregation algebra


def test_fedavg_identity():
    v = np.array([1.0, -2.0, 3.0])
    out = fedavg_aggregate([(v, 17)])
    np.testing.assert_array_equal(out, v)


def test_fedavg_weighted_mean_exact():
    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    out = fedavg_aggregate([(a, 1), (b, 3)])
    np.testing.assert_allclose(out, (a + 3 * b) / 4.0, rtol=1e-16)


def test_fedavg_permutation_invariant():
    rng = np.random.default_rng(0)
    ups = [(rng.normal(size=5), w) for w in [2, 5, 3]]
    out1 = fedavg_aggregate(ups)
    out2 = fedavg_aggregate(ups[::-1])
    np.testing.assert_allclose(out1, out2, rtol=1e-14)


def test_fedavg_coordinatewise_bounds():
    rng = np.random.default_rng(1)
    vecs = [rng.normal(size=6) for _ in range(4)]
    out = fedavg_aggregate([(v, i + 1) for i, v in enumerate(vecs)])
    stack = np.stack(vecs)
    assert np.all(out >= stack.min(axis=0) - 1e-12)
    assert np.all(out <= stack.max(axis=0) + 1e-12)


def test_fedavg_rejects_empty_and_mismatch():
    with pytest.raises(ValidationError):
        fedavg_aggregate([])
    with pytest.raises(ValidationError):
        fedavg_aggregate([(np.zeros(2), 1), (np.zeros(3), 1)])


def test_server_opt_first_update_adam_equals_yogi():
    rng = np.random.default_rng(2)
    g = rng.normal(size=8)
    ups = [(rng.normal(size=8), 3), (rng.normal(size=8), 1)]
    outs = {}
    for strat in ("fedadam", "fedyogi"):
        cfg = FedConfig(strategy=strat, n_clients=2)
        st = ServerOptState(np.zeros(8), np.zeros(8))
        outs[strat] = server_opt_aggregate(g.copy(), ups, st, cfg)
    np.testing.assert_array_equal(outs["fedadam"], outs["fedyogi"])


def test_server_opt_fixed_point_when_clients_agree():
    g = np.array([0.5, -1.5, 2.0])
    cfg = FedConfig(strategy="fedadam", n_clients=2)
    st = ServerOptState(np.zeros(3), np.zeros(3))
    out = server_opt_aggregate(g.copy(), [(g.copy(), 1), (g.copy(), 4)], st, cfg)
    np.testing.assert_array_equal(out, g)


def test_fedadam_two_rounds_closed_form():
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 1.0
    cfg = FedConfig(strategy="fedadam", n_clients=1)
    g = np.array([0.0])
    st = ServerOptState(np.zeros(1), np.zeros(1))
    x1, x2 = np.array([1.0]), np.array([0.4])

    g1 = server_opt_aggregate(g, [(x1, 1)], st, cfg)
    d1 = g - x1
    m = (1 - b1) * d1
    v = (1 - b2) * d1 * d1
    exp1 = g - lr * (m / (1 - b1)) / (np.sqrt(v) + eps)
    np.testing.assert_allclose(g1, exp1, rtol=1e-14)

    g2 = server_opt_aggregate(g1, [(x2, 1)], st, cfg)
    d2 = g1 - x2
    m = b1 * m + (1 - b1) * d2
    v = b2 * v + (1 - b2) * d2 * d2  # second moment NOT bias-corrected
    exp2 = g1 - lr * (m / (1 - b1**2)) / (np.sqrt(v) + eps)
    np.testing.assert_allclose(g2, exp2, rtol=1e-14)


def test_fedyogi_sign_rule_differs_on_second_round():
    cfg_y = FedConfig(strategy="fedyogi", n_clients=1)
    cfg_a = FedConfig(strategy="fedadam", n_clients=1)
    g = np.array([0.0])
    x1, x2 = np.array([2.0]), np.array([0.1])
    st_y = ServerOptState(np.zeros(1), np.zeros(1))
    st_a = ServerOptState(np.zeros(1), np.zeros(1))
    g_y = server_opt_aggregate(g, [(x1, 1)], st_y, cfg_y)
    g_a = server_opt_aggregate(g, [(x1, 1)], st_a, cfg_a)
    np.testing.assert_array_equal(g_y, g_a)
    server_opt_aggregate(g_y, [(x2, 1)], st_y, cfg_y)
    server_opt_aggregate(g_a, [(x2, 1)], st_a, cfg_a)
    # yogi: v <- v - (1-b2) d^2 sign(v - d^2); with d^2 < v the sign is +1
    d2 = (g_y - x2) ** 2
    expected_vy = st_y.v  # computed by the call; verify against formula
    manual_vy = 0.001 * (g - x1) ** 2 - 0.001 * d2 * np.sign(0.001 * (g - x1) ** 2 - d2)
    np.testing.assert_allclose(expected_vy, manual_vy, rtol=1e-14)
    assert not np.array_equal(st_y.v, st_a.v)


def _fedavg_oracle(updates):
    """The unblocked weighted mean: one new P-vector per client."""
    weight_sum = 0.0
    total = np.zeros(updates[0][0].size)
    for vec, weight in updates:
        total += float(weight) * vec
        weight_sum += float(weight)
    return total / weight_sum


def _server_opt_oracle(global_flat, updates, state, cfg):
    """The unblocked server step: new moment vectors and temporaries."""
    delta = global_flat - _fedavg_oracle(updates)
    d2 = delta * delta
    state.updates += 1
    state.m = cfg.server_beta1 * state.m + (1.0 - cfg.server_beta1) * delta
    if cfg.strategy == "fedadam":
        state.v = cfg.server_beta2 * state.v + (1.0 - cfg.server_beta2) * d2
    else:
        state.v = state.v - (1.0 - cfg.server_beta2) * d2 * np.sign(state.v - d2)
    m_hat = state.m / (1.0 - cfg.server_beta1 ** state.updates)
    return global_flat - cfg.server_lr * m_hat / (np.sqrt(state.v) + cfg.server_eps)


@pytest.mark.parametrize("n", [1, 1000, 2 * BLOCK + 123])
@pytest.mark.parametrize("strategy", ["fedadam", "fedyogi"])
def test_blocked_aggregation_bit_equals_whole_vector_oracle(n, strategy):
    rng = np.random.default_rng(n)
    cfg = FedConfig(strategy=strategy, n_clients=3, server_lr=0.01)
    state, oracle = (ServerOptState(np.zeros(n), np.zeros(n)) for _ in range(2))
    g = rng.normal(size=n)
    for _ in range(5):
        ups = [(g + rng.normal(size=n) * 10.0 ** rng.uniform(-4, 1), w)
               for w in rng.integers(1, 50, size=3)]
        ups[0][0][rng.random(n) < 0.2] = 0.0
        assert np.array_equal(fedavg_aggregate(ups), _fedavg_oracle(ups))
        out = server_opt_aggregate(g, ups, state, cfg)
        expected = _server_opt_oracle(g, ups, oracle, cfg)
        assert np.array_equal(out, expected)
        assert np.array_equal(state.m, oracle.m) and np.array_equal(state.v, oracle.v)
        g = out


def test_aggregation_allocates_less_than_two_parameter_vectors():
    n = 2_173_956  # the paper-width denoiser's parameter count
    rng = np.random.default_rng(0)
    g = rng.normal(size=n)
    ups = [(rng.normal(size=n), w) for w in (3, 1, 2)]
    state = ServerOptState(np.zeros(n), np.zeros(n))
    for strategy in ("fedadam", "fedyogi"):
        tracemalloc.start()
        try:
            fedavg_aggregate(ups)
            server_opt_aggregate(g, ups, state, FedConfig(strategy=strategy, n_clients=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * g.nbytes


def test_server_opt_rejects_wrong_strategy():
    with pytest.raises(ValidationError):
        server_opt_aggregate(np.zeros(2), [(np.zeros(2), 1)],
                             ServerOptState(np.zeros(2), np.zeros(2)),
                             FedConfig(strategy="fedavg"))


# ---------------------------------------------------------------------------
# FedConfig validation


def test_fedconfig_rejects_bad_values():
    with pytest.raises(ValidationError):
        FedConfig(strategy="sgd")
    with pytest.raises(ValidationError):
        FedConfig(rounds=0)
    with pytest.raises(ValidationError):
        FedConfig(n_clients=2, clients_per_round=3)
    with pytest.raises(ValidationError):
        FedConfig(learning_rate=0.0)
    with pytest.raises(ValidationError):
        FedConfig(prox_mu=-0.1)
    for beta in (-0.1, 1.0):
        with pytest.raises(ValidationError):
            FedConfig(server_beta1=beta)
        with pytest.raises(ValidationError):
            FedConfig(server_beta2=beta)
    with pytest.raises(ValidationError):
        FedConfig(server_eps=0.0)


# ---------------------------------------------------------------------------
# Local update golden reproduction (pins the RNG consumption order)


def test_local_update_noise_free_mechanism_reproducible_by_hand():
    """sigma=0 with a huge clip bound reduces to plain Adam on the Poisson
    batch mean; replaying the documented RNG order reproduces it bit-exactly."""
    datasets, params, schedule = _tiny_setup(n_clients=1, n_per=30)
    data = datasets[0]
    fed_cfg = FedConfig(n_clients=1, rounds=1, local_steps=3, batch_size=8,
                        learning_rate=1e-2)
    dp_cfg = DpConfig(noise_multiplier=0.0, clip_norm=1e12)
    state = init_state(params, datasets, fed_cfg, dp_cfg)
    before = state.global_flat.copy()
    rng = np.random.default_rng([123, 1, 0])
    flat, stats = client_local_update(state.global_flat, state.manifest,
                                      state.clients[0], data, schedule,
                                      fed_cfg, dp_cfg, rng)
    # Adam updates the client's own buffer; the global vector is untouched
    assert state.global_flat.tobytes() == before.tobytes()

    manual = _replay_local_update(state, data, schedule, fed_cfg, dp_cfg,
                                  np.random.default_rng([123, 1, 0]))
    np.testing.assert_array_equal(flat, manual)
    assert stats["steps"] == 3 and stats["sigma"] == 0.0


def _replay_local_update(state, data, schedule, fed_cfg, dp_cfg, rng):
    """Client 0's DP local update by hand, in the documented RNG order, with
    FedProx's term as the whole-vector expression g + mu (flat - anchor)."""
    manual = state.global_flat.copy()
    adam = AdamState.zeros(manual.size, fed_cfg.learning_rate)
    q = fed_cfg.batch_size / data.n_samples
    for _ in range(fed_cfg.local_steps):
        idx = np.flatnonzero(rng.random(data.n_samples) < q)
        if idx.size == 0:
            continue
        cur = DenoiserParams.from_flat(manual, state.manifest)
        batch = []
        for i in idx:
            x0 = data.numeric[int(i)]
            x_t, t, eps_vec = make_training_example(x0, rng, schedule)
            batch.append(TrainingSample(x_t, t, eps_vec, emb_rows=None,
                                        emb_coeff=math.sqrt(schedule.alpha_bar(t))))
        grads, _ = per_sample_grads(cur, batch)
        mean_grad = privatize(grads, dp_cfg.clip_norm, state.clients[0].sigma, rng)
        if fed_cfg.strategy == "fedprox":
            mean_grad = GradientVector(
                mean_grad.values + fed_cfg.prox_mu * (manual - state.global_flat))
        manual = adam_step(manual, adam, mean_grad)
    return manual


def test_fedprox_local_update_bit_equals_whole_vector_proximal_term():
    """The in-place, blocked proximal term gives the bits of the expression
    it replaced, over a model of three BLOCKs."""
    datasets, _, schedule = _tiny_setup(n_clients=1, n_per=30)
    params = init_denoiser(3, hidden_width=256, n_hidden=2, time_dim=8,
                           rng=np.random.default_rng(5))
    assert params.size > 2 * BLOCK
    fed_cfg = FedConfig(n_clients=1, rounds=1, local_steps=4, batch_size=8,
                        learning_rate=1e-2, strategy="fedprox", prox_mu=0.3)
    dp_cfg = DpConfig(noise_multiplier=1.0, clip_norm=1.0)
    state = init_state(params, datasets, fed_cfg, dp_cfg)
    flat, _ = client_local_update(state.global_flat, state.manifest, state.clients[0],
                                  datasets[0], schedule, fed_cfg, dp_cfg,
                                  np.random.default_rng([6, 1, 0]))
    manual = _replay_local_update(state, datasets[0], schedule, fed_cfg, dp_cfg,
                                  np.random.default_rng([6, 1, 0]))
    assert not np.array_equal(flat, state.global_flat)
    assert np.array_equal(flat, manual)


def test_fedprox_dp_step_peaks_within_one_block_of_fedavg():
    """The whole-vector proximal term peaked 0.87 parameter vectors above
    FedAvg here (3.07 against 2.20)."""
    datasets, _, schedule = _tiny_setup(n_clients=1, n_per=30)
    params = init_denoiser(3, hidden_width=512, n_hidden=3, time_dim=8,
                           rng=np.random.default_rng(5))
    dp_cfg = DpConfig(noise_multiplier=1.0)
    peaks = {}
    for strategy in ("fedavg", "fedprox"):
        fed_cfg = FedConfig(n_clients=1, rounds=1, local_steps=1, batch_size=8,
                            strategy=strategy, prox_mu=0.1)
        state = init_state(params, datasets, fed_cfg, dp_cfg)
        tracemalloc.start()
        try:
            client_local_update(state.global_flat, state.manifest, state.clients[0],
                                datasets[0], schedule, fed_cfg, dp_cfg,
                                np.random.default_rng([7, 1, 0]))
            peaks[strategy] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["fedprox"] <= peaks["fedavg"] + BLOCK * 8


def test_two_step_dp_update_peaks_within_one_block_of_one_step():
    """Keeping the previous step's batch gradient alive while the next one
    was built peaked one parameter vector higher here (3.10 against 2.20)."""
    datasets, _, schedule = _tiny_setup(n_clients=1, n_per=30)
    params = init_denoiser(3, hidden_width=512, n_hidden=3, time_dim=8,
                           rng=np.random.default_rng(5))
    dp_cfg = DpConfig(noise_multiplier=1.0)
    peaks = {}
    for local_steps in (1, 2):
        fed_cfg = FedConfig(n_clients=1, rounds=1, local_steps=local_steps, batch_size=8)
        state = init_state(params, datasets, fed_cfg, dp_cfg)
        tracemalloc.start()
        try:
            _, stats = client_local_update(state.global_flat, state.manifest,
                                           state.clients[0], datasets[0], schedule,
                                           fed_cfg, dp_cfg, np.random.default_rng([7, 1, 0]))
            peaks[local_steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats["loss"] is not None
    assert peaks[2] <= peaks[1] + BLOCK * 8


def test_local_update_feeds_the_benchmark_probes(monkeypatch):
    """The benchmark wraps these three names in federation's namespace; its
    clip counter takes len() of privatize's first argument and reads .norm
    from each of its items."""
    datasets, params, schedule = _tiny_setup(n_clients=1, n_per=30)
    fed_cfg = FedConfig(n_clients=1, rounds=1, local_steps=2, batch_size=8)
    dp_cfg = DpConfig(noise_multiplier=1.0)
    state = init_state(params, datasets, fed_cfg, dp_cfg)
    batch_sizes, examples, privatized = [], [], []

    def counting_grads(p, batch):
        batch_sizes.append(len(batch))
        return per_sample_grads(p, batch)

    def counting_example(*args, **kwargs):
        examples.append(1)
        return make_training_example(*args, **kwargs)

    def counting_privatize(grads, *args):
        privatized.append((len(grads), [g.norm for g in grads]))
        return privatize(grads, *args)

    monkeypatch.setattr(federation, "per_sample_grads", counting_grads)
    monkeypatch.setattr(federation, "make_training_example", counting_example)
    monkeypatch.setattr(federation, "privatize", counting_privatize)
    client_local_update(state.global_flat, state.manifest, state.clients[0],
                        datasets[0], schedule, fed_cfg, dp_cfg,
                        np.random.default_rng([4, 1, 0]))
    assert batch_sizes and privatized
    assert len(examples) == sum(batch_sizes)
    assert [n for n, _ in privatized] == batch_sizes
    for n, norms in privatized:
        assert len(norms) == n and all(np.isfinite(norms))


def test_local_update_uniform_batches_without_mechanism():
    datasets, params, schedule = _tiny_setup(n_clients=1, n_per=10)
    fed_cfg = FedConfig(n_clients=1, rounds=1, local_steps=2, batch_size=4)
    dp_cfg = DpConfig()  # off: uniform without-replacement batches
    state = init_state(params, datasets, fed_cfg, dp_cfg)
    before = state.global_flat.copy()
    rng = np.random.default_rng([9, 1, 0])
    flat, stats = client_local_update(state.global_flat, state.manifest,
                                      state.clients[0], datasets[0], schedule,
                                      fed_cfg, dp_cfg, rng)
    assert state.global_flat.tobytes() == before.tobytes()
    assert stats["sigma"] is None
    assert stats["loss"] is not None
    assert np.all(np.isfinite(flat))
    assert not np.array_equal(flat, state.global_flat)


# ---------------------------------------------------------------------------
# Training loop behaviour


def test_train_deterministic_and_seed_sensitive():
    datasets, params, schedule = _tiny_setup()
    fed_cfg = FedConfig(n_clients=2, rounds=3, local_steps=2, batch_size=8)
    runs = []
    for seed in (5, 5, 6):
        res, st = train(datasets, params, schedule, fed_cfg, DpConfig(), seed)
        runs.append(st.global_flat)
    np.testing.assert_array_equal(runs[0], runs[1])
    assert not np.array_equal(runs[0], runs[2])


def test_fedprox_zero_mu_bit_equal_to_fedavg():
    datasets, params, schedule = _tiny_setup()
    out = {}
    for strat, mu in (("fedavg", 0.01), ("fedprox", 0.0)):
        cfg = FedConfig(n_clients=2, rounds=3, local_steps=2, batch_size=8,
                        strategy=strat, prox_mu=mu)
        _, st = train(datasets, params, schedule, cfg, DpConfig(), 7)
        out[strat] = st.global_flat
    np.testing.assert_array_equal(out["fedavg"], out["fedprox"])


def test_fedprox_positive_mu_changes_result():
    datasets, params, schedule = _tiny_setup()
    out = {}
    for mu in (0.0, 0.5):
        cfg = FedConfig(n_clients=2, rounds=2, local_steps=3, batch_size=8,
                        strategy="fedprox", prox_mu=mu)
        _, st = train(datasets, params, schedule, cfg, DpConfig(), 7)
        out[mu] = st.global_flat
    assert not np.array_equal(out[0.0], out[0.5])


@pytest.mark.parametrize("strategy", ["fedavg", "fedadam", "fedprox", "fedyogi"])
def test_all_strategies_run_and_stay_finite(strategy):
    datasets, params, schedule = _tiny_setup()
    cfg = FedConfig(n_clients=2, rounds=3, local_steps=2, batch_size=8,
                    strategy=strategy, clients_per_round=2)
    res, st = train(datasets, params, schedule, cfg, DpConfig(), 11)
    assert res.rounds_completed == 3
    assert np.all(np.isfinite(st.global_flat))
    assert len(res.audit) == 6  # two clients per round


def test_single_client_loss_decreases():
    datasets, params, schedule = _tiny_setup(n_clients=1, n_per=60)
    cfg = FedConfig(n_clients=1, rounds=30, local_steps=5, batch_size=16,
                    learning_rate=1e-3)
    res, _ = train(datasets, params, schedule, cfg, DpConfig(), 3)
    losses = [a["loss"] for a in res.audit]
    head = float(np.mean(losses[:5]))
    tail = float(np.mean(losses[-5:]))
    assert tail < head


def test_audit_records_shape():
    datasets, params, schedule = _tiny_setup()
    cfg = FedConfig(n_clients=2, rounds=2, local_steps=2, batch_size=8)
    res, _ = train(datasets, params, schedule, cfg, DpConfig(), 1)
    assert len(res.audit) == 2  # one client per round by default
    rec = res.audit[0]
    assert rec["round"] == 1 and rec["client"] in (0, 1)
    assert set(rec) >= {"loss", "grad_norm_pre", "grad_norm_post", "steps",
                        "q", "sigma", "epsilon"}
    assert rec["epsilon"] is None  # no accounting without a budget


def test_client_adam_state_persists_across_rounds():
    datasets, params, schedule = _tiny_setup(n_clients=1)
    cfg = FedConfig(n_clients=1, rounds=4, local_steps=3, batch_size=8)
    _, st = train(datasets, params, schedule, cfg, DpConfig(), 2)
    assert st.clients[0].adam.t == 4 * 3


def test_round_selection_uses_round_seeded_stream():
    datasets, params, schedule = _tiny_setup(n_clients=4, n_per=20)
    cfg = FedConfig(n_clients=4, rounds=6, local_steps=1, batch_size=8,
                    clients_per_round=2)
    res, _ = train(datasets, params, schedule, cfg, DpConfig(), 13)
    by_round = {}
    for rec in res.audit:
        by_round.setdefault(rec["round"], []).append(rec["client"])
    for r, clients in by_round.items():
        assert clients == sorted(clients)
        assert len(set(clients)) == 2
    picked = {tuple(v) for v in by_round.values()}
    assert len(picked) > 1  # selection varies across rounds


# ---------------------------------------------------------------------------
# Privacy budget enforcement


def test_accountant_counts_local_steps():
    datasets, params, schedule = _tiny_setup(n_clients=2)
    cfg = FedConfig(n_clients=2, rounds=4, local_steps=3, batch_size=8,
                    clients_per_round=1)
    dp = DpConfig(epsilon=50.0)  # roomy: no early stop
    res, st = train(datasets, params, schedule, cfg, dp, 21)
    total_steps = sum(c.accountant.steps for c in st.clients)
    assert total_steps == 4 * 3
    participations = {rec["client"] for rec in res.audit}
    for c in st.clients:
        if c.client_id in participations:
            assert c.accountant.steps > 0


def test_budget_early_stop_matches_projection():
    datasets, params, schedule = _tiny_setup(n_clients=1, n_per=200)
    cfg = FedConfig(n_clients=1, rounds=60, local_steps=2, batch_size=16)
    dp = DpConfig(epsilon=2.0, noise_multiplier=1.0)
    res, st = train(datasets, params, schedule, cfg, dp, 17)
    q = 16 / 200
    delta = 1 / 200
    k = 0
    while epsilon_after(q, 1.0, (k + 1) * 2, delta) <= 2.0:
        k += 1
    assert res.rounds_completed == k
    assert res.stopped_early and st.stopped_early
    assert 0 < res.epsilons[0] <= 2.0


def test_budget_exhausted_before_first_round_raises():
    datasets, params, schedule = _tiny_setup(n_clients=1, n_per=20)
    cfg = FedConfig(n_clients=1, rounds=5, local_steps=10, batch_size=32)
    dp = DpConfig(epsilon=0.05, noise_multiplier=0.5)
    with pytest.raises(PrivacyBudgetError):
        train(datasets, params, schedule, cfg, dp, 0)


def test_calibrated_full_run_lands_just_under_target():
    datasets, params, schedule = _tiny_setup(n_clients=2, n_per=60)
    cfg = FedConfig(n_clients=2, rounds=4, local_steps=5, batch_size=16,
                    clients_per_round=2)
    dp = DpConfig(epsilon=1.0)
    res, st = train(datasets, params, schedule, cfg, dp, 29)
    assert res.rounds_completed == 4
    for cid, eps in res.epsilons.items():
        assert 0.9 < eps <= 1.0, f"client {cid} ended at epsilon {eps}"


def test_dp_noise_changes_trajectory():
    datasets, params, schedule = _tiny_setup()
    cfg = FedConfig(n_clients=2, rounds=2, local_steps=2, batch_size=8)
    _, noisy = train(datasets, params, schedule, cfg,
                     DpConfig(noise_multiplier=1.0), 31)
    _, clean = train(datasets, params, schedule, cfg,
                     DpConfig(noise_multiplier=0.0), 31)
    assert not np.array_equal(noisy.global_flat, clean.global_flat)


def test_stop_after_round_halts_midway():
    datasets, params, schedule = _tiny_setup()
    cfg = FedConfig(n_clients=2, rounds=10, local_steps=2, batch_size=8)
    res, st = train(datasets, params, schedule, cfg, DpConfig(), 37,
                    stop_after_round=4)
    assert res.rounds_completed == 4 and st.round == 4
    assert not res.stopped_early


def test_resume_equals_straight_run():
    datasets, params, schedule = _tiny_setup()
    cfg = FedConfig(n_clients=2, rounds=6, local_steps=2, batch_size=8)
    _, straight = train(datasets, params, schedule, cfg, DpConfig(), 41)
    _, part = train(datasets, params, schedule, cfg, DpConfig(), 41,
                    stop_after_round=3)
    _, resumed = train(datasets, params, schedule, cfg, DpConfig(), 41,
                       state=part)
    np.testing.assert_array_equal(straight.global_flat, resumed.global_flat)


# ---------------------------------------------------------------------------
# Shard construction


def test_make_client_datasets_slices_consistently():
    table = gaussian_mixture_table(90, seed=5)
    pipe = EncodingPipeline.fit(table, embed_seed=0)
    parts = partition_iid(table, 3, rng_seed=0)
    shards = make_client_datasets(pipe, table, parts)
    assert sum(s.n_samples for s in shards) == 90
    full_numeric = pipe.encode_numeric(table)
    full_cats = pipe.category_indices(table)
    for part, shard in zip(parts, shards):
        np.testing.assert_array_equal(shard.numeric, full_numeric[part.indices])
        np.testing.assert_array_equal(shard.cat_rows, full_cats[part.indices])


def test_client_dataset_rejects_empty():
    with pytest.raises(ValidationError):
        ClientDataset(np.zeros((0, 2)), np.zeros((0, 0), dtype=np.int64))
