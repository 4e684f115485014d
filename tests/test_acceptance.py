"""Acceptance gates for the full pipeline.

Nine checks, each printing one ``[criterion N] PASS/FAIL`` line (run pytest
with ``-s`` to see them): per-sample gradient correctness, reverse-diffusion
inversion of known noise, the DP mechanism (clip bound, accountant
additivity, noise calibration), aggregation algebra, an end-to-end fidelity
floor, the privacy/fidelity/utility trade-off trend, privacy-attack
calibration, metric definitional exactness, and bit-level reproducibility.

The trade-off trend and quality-floor gates train real models and together
take a few minutes; everything else is seconds.
"""

import math
import os
import time

import numpy as np
import pytest

from fedsynth.data import write_csv
from fedsynth.diffusion import generate, linear_schedule
from fedsynth.dp import (DpConfig, RdpAccountant, calibrate_sigma, clip,
                         epsilon_after)
from fedsynth.experiment import (OUTPUT_ROOT_ENV, cmd_evaluate, cmd_generate,
                                 cmd_prepare, cmd_train, desk_preset,
                                 run_pipeline)
from fedsynth.federation import (ClientDataset, ClientState, FedConfig,
                                 ServerOptState, client_local_update,
                                 fedavg_aggregate, server_opt_aggregate)
from fedsynth.fixtures import gaussian_mixture_table, independent_table
from fedsynth.metrics import evaluate_tables
from fedsynth.nn import (AdamState, DenoiserParams, GradientVector,
                         TrainingSample, forward, init_denoiser,
                         per_sample_grads)


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def mixture_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fixture")
    table = gaussian_mixture_table(2000, seed=7)
    real = str(tmp / "real.csv")
    schema = str(tmp / "schema.json")
    write_csv(real, table)
    table.schema.save(schema)
    return {"tmp": tmp, "real": real, "schema": schema}


def _trend_config(files, out_dir, seed, epsilon):
    return desk_preset(
        dataset=files["real"], schema=files["schema"], output_dir=out_dir,
        n_rows=2000,
    ).replace(**{
        "federation.n_clients": 3, "federation.rounds": 50,
        "federation.local_steps": 20,
        "seeds.model": seed, "seeds.data": seed + 1, "seeds.attack": seed + 2,
        "dp.epsilon": epsilon,
    })


# ---------------------------------------------------------------------------
# 1. per-sample gradients vs central finite differences


def _loss_of_flat(flat, manifest, proto):
    params = DenoiserParams.from_flat(flat, manifest)
    x_in = np.array(proto["x_base"])
    if proto["rows"] is not None:
        n_num = params.n_numeric
        for j, row in enumerate(proto["rows"]):
            x_in[n_num + 2 * j: n_num + 2 * (j + 1)] += (
                proto["coeff"] * params.embeddings[j][row])
    out = forward(params, x_in, proto["t"])
    diff = out - proto["target"]
    return float(diff @ diff) / out.size


def _random_net_and_sample(rng):
    d_num = int(rng.integers(1, 4))
    n_cat = int(rng.integers(0, 3))
    d_enc = d_num + 2 * n_cat
    emb = [rng.normal(size=(int(rng.integers(2, 5)), 2)) for _ in range(n_cat)]
    params = init_denoiser(d_enc, hidden_width=int(rng.integers(4, 9)),
                           n_hidden=int(rng.integers(1, 3)), time_dim=4,
                           embeddings=emb or None, rng=rng)
    x_base = rng.normal(size=d_enc)
    rows = None
    coeff = 0.0
    if params.embeddings:
        rows = np.array([rng.integers(0, e.shape[0]) for e in params.embeddings])
        coeff = 0.73
        x_base[d_num:] = 0.0
    x_in = np.array(x_base)
    if rows is not None:
        for j, row in enumerate(rows):
            x_in[d_num + 2 * j: d_num + 2 * (j + 1)] += coeff * params.embeddings[j][row]
    proto = {"x_base": x_base, "rows": rows, "coeff": coeff,
             "t": int(rng.integers(1, 20)), "target": rng.normal(size=d_enc)}
    sample = TrainingSample(x_in=x_in, t=proto["t"], target=proto["target"],
                            emb_rows=rows, emb_coeff=coeff)
    return params, sample, proto


def test_criterion_1_per_sample_gradients_match_finite_differences():
    rng = np.random.default_rng(101)
    started = time.time()
    worst = 0.0
    h = 1e-6
    for _ in range(100):
        params, sample, proto = _random_net_and_sample(rng)
        grads, _ = per_sample_grads(params, [sample])
        g = grads[0].values
        flat = params.flatten()
        manifest = params.manifest()
        probe = rng.choice(flat.size, size=min(25, flat.size), replace=False)
        for idx in probe:
            idx = int(idx)
            up, dn = np.array(flat), np.array(flat)
            up[idx] += h
            dn[idx] -= h
            fd = (_loss_of_flat(up, manifest, proto)
                  - _loss_of_flat(dn, manifest, proto)) / (2 * h)
            denom = max(abs(fd), abs(g[idx]), 1e-6)
            worst = max(worst, abs(g[idx] - fd) / denom)
    elapsed = time.time() - started
    _verdict(1, worst <= 1e-4 and elapsed < 60.0,
             f"worst relative gradient error {worst:.3e} over 100 random nets "
             f"(tolerance 1e-4, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. reverse sampling inverts the true forward noise


def test_criterion_2_reverse_sampling_recovers_x0_from_true_noise():
    schedule = linear_schedule(50)
    x0 = 0.73

    def oracle(x, t):
        abar = schedule.alpha_bar(int(t))
        return (x - math.sqrt(abar) * x0) / math.sqrt(1.0 - abar)

    samples = generate(oracle, 64, 1, schedule, np.random.default_rng(5))
    err = float(np.max(np.abs(samples - x0)))
    _verdict(2, err <= 1e-6,
             f"max |x - x0| = {err:.3e} over 64 reverse trajectories "
             f"(T=50, tolerance 1e-6)")


# ---------------------------------------------------------------------------
# 3. DP mechanism: clip bound, additivity, calibration round trip


def test_criterion_3_dp_mechanism_properties():
    started = time.time()
    rng = np.random.default_rng(33)
    overshoots = 0
    for _ in range(5000):
        d = int(rng.integers(1, 40))
        g = GradientVector(rng.standard_normal(d) * 10 ** rng.uniform(-3, 3))
        c = 10 ** rng.uniform(-2, 2)
        if float(np.linalg.norm(clip(g, c).values)) > c:
            overshoots += 1

    # composing the same steps in different chunkings must give the same
    # epsilon, bit for bit
    one = RdpAccountant()
    one.account_step(0.02, 1.1, 300)
    one.account_step(0.05, 0.9, 200)
    other = RdpAccountant()
    for _ in range(3):
        other.account_step(0.02, 1.1, 100)
    for _ in range(4):
        other.account_step(0.05, 0.9, 50)
    additive = one.to_epsilon(1e-5) == other.to_epsilon(1e-5)

    calibrated = True
    landings = []
    for target in (0.2, 1.0, 10.0):
        sigma = calibrate_sigma(target, 1e-5, 0.1, 100)
        eps = epsilon_after(0.1, sigma, 100, 1e-5)
        landings.append(f"{target}→{eps:.4f}")
        calibrated = calibrated and (0.95 * target < eps <= target)
    elapsed = time.time() - started
    _verdict(3, overshoots == 0 and additive and calibrated and elapsed < 60.0,
             f"clip overshoots {overshoots}/5000, additivity exact: {additive}, "
             f"calibration landings {landings} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4. aggregation algebra


def test_criterion_4_aggregation_algebra():
    rng = np.random.default_rng(44)
    w = rng.normal(size=257)
    identity = np.array_equal(
        fedavg_aggregate([(w, 1.0), (w, 1.0), (w, 2.0)]), w)

    a, b, c = (np.array([1.0, 2.0]), np.array([3.0, 5.0]), np.array([7.0, 11.0]))
    ordered = fedavg_aggregate([(a, 1.0), (b, 2.0), (c, 4.0)])
    permuted = fedavg_aggregate([(c, 4.0), (a, 1.0), (b, 2.0)])
    symmetric = np.array_equal(ordered, permuted)
    weighted = np.array_equal(ordered, np.array([35.0, 56.0]) / 7.0)

    # FedProx at mu = 0 must follow the exact FedAvg trajectory, bit for bit
    data = ClientDataset(rng.normal(size=(30, 4)), np.zeros((30, 0), dtype=np.int64))
    params = init_denoiser(4, hidden_width=8, n_hidden=2, time_dim=4,
                           rng=np.random.default_rng(7))
    schedule = linear_schedule(20)
    flats = {}
    for strategy in ("fedavg", "fedprox"):
        cfg = FedConfig(n_clients=1, rounds=1, local_steps=6, batch_size=8,
                        strategy=strategy, prox_mu=0.0)
        client = ClientState(0, AdamState.zeros(params.size, cfg.learning_rate),
                             None, None, None, 30)
        flats[strategy], _ = client_local_update(
            params.flatten(), params.manifest(), client, data, schedule,
            cfg, DpConfig(), np.random.default_rng(9))
    prox_equal = np.array_equal(flats["fedavg"], flats["fedprox"])

    fixed = True
    for strategy in ("fedadam", "fedyogi"):
        cfg = FedConfig(n_clients=2, clients_per_round=2, strategy=strategy)
        state = ServerOptState(np.zeros(w.size), np.zeros(w.size))
        out = server_opt_aggregate(w, [(w, 1.0), (w, 1.0)], state, cfg)
        fixed = fixed and np.array_equal(out, w)

    _verdict(4, identity and symmetric and weighted and prox_equal and fixed,
             f"identity {identity}, symmetry {symmetric}, weighted mean "
             f"{weighted}, prox(mu=0) bit-equal {prox_equal}, "
             f"server fixed point {fixed}")


# ---------------------------------------------------------------------------
# 5. end-to-end fidelity floor, centralized and non-private


@pytest.mark.slow
def test_criterion_5_centralized_quality_floor(mixture_files):
    started = time.time()
    cfg = desk_preset(
        dataset=mixture_files["real"], schema=mixture_files["schema"],
        output_dir=str(mixture_files["tmp"] / "floor"), n_rows=2000,
    ).replace(**{
        "federation.n_clients": 1, "federation.rounds": 10,
        "federation.local_steps": 500, "federation.batch_size": 64,
    })
    cmd_prepare(cfg)
    cmd_train(cfg)
    syn = cmd_generate(cfg)
    report = cmd_evaluate(mixture_files["real"], syn, mixture_files["schema"],
                          seed=2, n_attacks=100)
    elapsed = time.time() - started
    _verdict(5, report.omega >= 0.85 and elapsed < 600.0,
             f"omega {report.omega:.4f} after 5000 optimizer steps "
             f"(floor 0.85, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 6. privacy budget trend: tighter epsilon hurts fidelity/utility, helps privacy


@pytest.mark.slow
def test_criterion_6_privacy_tradeoff_trend(mixture_files):
    started = time.time()
    wins = {"omega": 0, "phi": 0, "pi": 0}
    rows = []
    for seed in range(5):
        reports = {}
        for eps in (math.inf, 0.2):
            out = str(mixture_files["tmp"] / f"trend_e{eps}_s{seed}")
            cfg = _trend_config(mixture_files, out, seed, eps)
            cmd_prepare(cfg)
            cmd_train(cfg)
            syn = cmd_generate(cfg)
            reports[eps] = cmd_evaluate(
                mixture_files["real"], syn, mixture_files["schema"],
                seed=seed + 2, n_attacks=300)
        free, tight = reports[math.inf], reports[0.2]
        wins["omega"] += free.omega > tight.omega
        wins["phi"] += free.phi >= tight.phi - 0.02
        wins["pi"] += free.privacy_risk > tight.privacy_risk
        rows.append(f"s{seed}: omega {free.omega:.3f}/{tight.omega:.3f} "
                    f"phi {free.phi:.3f}/{tight.phi:.3f} "
                    f"pi {free.privacy_risk:.3f}/{tight.privacy_risk:.3f}")
    elapsed = time.time() - started
    ok = all(v >= 4 for v in wins.values()) and elapsed < 3600.0
    _verdict(6, ok,
             f"direction held (of 5 seeds): omega {wins['omega']}, "
             f"phi {wins['phi']}, pi {wins['pi']} — need >= 4 each "
             f"({elapsed:.0f}s; {'; '.join(rows)})")


# ---------------------------------------------------------------------------
# 7. privacy attacks calibrated on known leak-everything / leak-nothing cases


def test_criterion_7_attack_calibration():
    started = time.time()
    real = independent_table(500, seed=1)
    leak = evaluate_tables(real, real, seed=3, n_attacks=500)
    null_syn = independent_table(500, seed=777)
    null = evaluate_tables(real, null_syn, seed=3, n_attacks=500)
    elapsed = time.time() - started
    ok = leak.privacy_risk >= 0.8 and null.privacy_risk <= 0.1 and elapsed < 300.0
    _verdict(7, ok,
             f"syn=real pi {leak.privacy_risk:.4f} (>= 0.8), independent-null "
             f"pi {null.privacy_risk:.4f} (<= 0.1) ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 8. aggregate metrics are exactly the means of their parts


def test_criterion_8_metric_definitions_exact():
    real = gaussian_mixture_table(400, seed=7)
    syn = gaussian_mixture_table(400, seed=8)
    report = evaluate_tables(real, syn, seed=5, n_attacks=60)

    p = report.privacy
    pi_parts = [p["singling_out"]["risk"], p["linkability"]["risk"],
                p["inference"]["risk"]]
    d_pi = abs(report.privacy_risk - sum(pi_parts) / 3.0)
    accs = list(report.utility["accuracies"].values())
    d_phi = abs(report.phi - sum(accs) / len(accs))
    f = report.fidelity
    d_omega = abs(report.omega - (f["omega_col"] + f["omega_row"]) / 2.0)
    ok = d_pi <= 1e-12 and d_phi <= 1e-12 and d_omega <= 1e-12
    _verdict(8, ok,
             f"deviation from definitional means: pi {d_pi:.2e}, "
             f"phi {d_phi:.2e}, omega {d_omega:.2e} (tolerance 1e-12)")


# ---------------------------------------------------------------------------
# 9. equal seeds give bit-identical artifacts


def test_criterion_9_bit_identical_reruns(mixture_files, monkeypatch):
    cfg = desk_preset(
        dataset=mixture_files["real"], schema=mixture_files["schema"],
        output_dir="repro", n_rows=200, n_attacks=50,
    ).replace(**{
        "federation.rounds": 4, "federation.local_steps": 10,
        "model.hidden_width": 32, "diffusion.timesteps": 50,
    })
    blobs = {}
    for root in ("first", "second"):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(mixture_files["tmp"] / root))
        run_pipeline(cfg)
        run_dir = os.path.join(str(mixture_files["tmp"] / root), "repro")
        blobs[root] = {
            name: open(os.path.join(run_dir, name), "rb").read()
            for name in ("checkpoint.npz", "synthetic.csv", "report.json")}
    same = {name: blobs["first"][name] == blobs["second"][name]
            for name in blobs["first"]}
    _verdict(9, all(same.values()),
             "bit-identical rerun artifacts: " +
             ", ".join(f"{k} {v}" for k, v in sorted(same.items())))
