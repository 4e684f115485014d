"""Simulated federated training: round loop, local DP updates, aggregation.

A round selects ``clients_per_round`` clients, each of which copies the
global parameters, runs ``local_steps`` (optionally DP) Adam updates on its
own shard, and reports back; the server then combines the reported parameter
vectors with FedAvg or an adaptive server optimizer (FedAdam/FedYogi).
FedProx is FedAvg aggregation plus a proximal gradient term on the client.

All randomness derives from one training seed: the selection stream for
round r is seeded with [seed, 0, r] and client c's local stream with
[seed, 1 + c, r], so any round can be replayed without replaying history —
that is what makes checkpoint resume bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diffusion import NoiseSchedule, make_training_example
from .dp import DpConfig, RdpAccountant, calibrate_sigma, privatize
from .errors import DivergenceError, PrivacyBudgetError, ValidationError
from .nn import (AdamState, DenoiserParams, GradientVector, TrainingSample, adam_step, blocks,
                 per_sample_grads)

STRATEGIES = ("fedavg", "fedadam", "fedprox", "fedyogi")
DEFAULT_BATCH_SIZE = 16


@dataclass(frozen=True)
class FedConfig:
    """Orchestration knobs for one federated run."""

    n_clients: int = 5
    rounds: int = 3000
    local_steps: int = 100
    clients_per_round: int = 1
    strategy: str = "fedavg"
    prox_mu: float = 0.01
    batch_size: int = DEFAULT_BATCH_SIZE
    learning_rate: float = 1e-3
    server_lr: float = 1.0
    server_beta1: float = 0.9
    server_beta2: float = 0.999
    server_eps: float = 1e-8

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValidationError(
                f"unknown strategy {self.strategy!r}; pick one of {STRATEGIES}")
        if self.rounds < 1 or self.local_steps < 1:
            raise ValidationError("rounds and local_steps must be >= 1")
        if not 1 <= self.clients_per_round <= self.n_clients:
            raise ValidationError("need 1 <= clients_per_round <= n_clients")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.learning_rate <= 0 or self.server_lr <= 0:
            raise ValidationError("learning rates must be positive")
        if self.prox_mu < 0:
            raise ValidationError("prox_mu must be non-negative")
        if not (0 <= self.server_beta1 < 1 and 0 <= self.server_beta2 < 1):
            raise ValidationError("server betas must lie in [0, 1)")
        if self.server_eps <= 0:
            raise ValidationError("server_eps must be positive")


@dataclass(frozen=True)
class ClientDataset:
    """One client's encoded shard: numeric block plus embedding row indices."""

    numeric: np.ndarray
    cat_rows: np.ndarray

    def __post_init__(self):
        numeric = np.atleast_2d(np.asarray(self.numeric, dtype=np.float64))
        cat_rows = np.asarray(self.cat_rows, dtype=np.int64)
        if cat_rows.ndim != 2:
            cat_rows = cat_rows.reshape(numeric.shape[0], -1)
        if numeric.shape[0] != cat_rows.shape[0]:
            raise ValidationError("numeric and categorical row counts differ")
        if numeric.shape[0] == 0:
            raise ValidationError("client shard is empty")
        object.__setattr__(self, "numeric", numeric)
        object.__setattr__(self, "cat_rows", cat_rows)

    @property
    def n_samples(self) -> int:
        return self.numeric.shape[0]


def make_client_datasets(pipeline, table, partitions) -> list:
    """Slice an encoded table into per-client shards following a partition."""
    numeric = pipeline.encode_numeric(table)
    cat_rows = pipeline.category_indices(table)
    return [ClientDataset(numeric[p.indices], cat_rows[p.indices])
            for p in partitions]


@dataclass
class ClientState:
    """Mutable per-client training state that persists across rounds."""

    client_id: int
    adam: AdamState
    accountant: RdpAccountant | None
    sigma: float | None
    delta: float | None
    n_samples: int

    def current_epsilon(self) -> float | None:
        if self.accountant is None or self.accountant.steps == 0:
            return None
        return self.accountant.to_epsilon(self.delta)[0]


@dataclass
class ServerOptState:
    """Adaptive server-optimizer moments (FedAdam / FedYogi)."""

    m: np.ndarray
    v: np.ndarray
    updates: int = 0


@dataclass
class FederatedState:
    """Everything needed to continue training from round ``round``."""

    global_flat: np.ndarray
    manifest: dict
    clients: list
    server: ServerOptState
    round: int = 0
    stopped_early: bool = False

    @property
    def params(self) -> DenoiserParams:
        return DenoiserParams.from_flat(self.global_flat, self.manifest)


@dataclass
class TrainResult:
    params: DenoiserParams
    audit: list
    rounds_completed: int
    epsilons: dict
    stopped_early: bool


# ---------------------------------------------------------------------------
# Aggregation


def fedavg_aggregate(updates: list) -> np.ndarray:
    """Sample-count-weighted mean of client parameter vectors.

    ``updates`` is a list of (flat params, sample count); weights normalize
    over the participating clients. Each element is summed over the clients
    in list order from zero, then divided by the weight sum, block by block.
    """
    if not updates:
        raise ValidationError("nothing to aggregate")
    length = updates[0][0].size
    weight_sum = 0.0
    for vec, weight in updates:
        if vec.size != length:
            raise ValidationError("client parameter vectors differ in length")
        weight_sum += float(weight)
    if weight_sum <= 0.0:
        raise ValidationError("aggregation weights must sum to a positive value")
    total = np.zeros(length)
    for s, (term,) in blocks(length, 1):
        acc = total[s]
        for vec, weight in updates:
            np.multiply(vec[s], float(weight), out=term)
            acc += term
        acc /= weight_sum
    return total


def server_opt_aggregate(global_flat: np.ndarray, updates: list,
                         state: ServerOptState, cfg: FedConfig) -> np.ndarray:
    """One adaptive server step on the pseudo-gradient.

    Delta = current global minus the FedAvg of client params. The first
    moment is bias-corrected; the second is not (standard federated-optimizer
    convention). FedYogi's sign-controlled second moment matches FedAdam on
    the first update from zero moments. The moments are updated in place and
    the new global vector is written over the FedAvg result, block by block.
    """
    if cfg.strategy not in ("fedadam", "fedyogi"):
        raise ValidationError(f"server optimizer got strategy {cfg.strategy!r}")
    if state.m.shape != global_flat.shape or state.v.shape != global_flat.shape:
        raise ValidationError("server optimizer state shape mismatch")
    out = fedavg_aggregate(updates)
    state.updates += 1
    b1, b2 = cfg.server_beta1, cfg.server_beta2
    bias1 = 1.0 - b1 ** state.updates
    for s, (delta, d2) in blocks(out.size, 2):
        m, v = state.m[s], state.v[s]
        np.subtract(global_flat[s], out[s], out=delta)
        np.multiply(delta, delta, out=d2)
        m *= b1
        delta *= 1.0 - b1
        m += delta
        if cfg.strategy == "fedadam":
            v *= b2
            d2 *= 1.0 - b2
            v += d2
        else:
            np.subtract(v, d2, out=delta)
            np.sign(delta, out=delta)
            d2 *= 1.0 - b2
            d2 *= delta
            v -= d2
        np.sqrt(v, out=d2)
        d2 += cfg.server_eps
        np.divide(m, bias1, out=delta)
        delta *= cfg.server_lr
        delta /= d2
        np.subtract(global_flat[s], delta, out=out[s])
    return out


# ---------------------------------------------------------------------------
# Local training


def _sampling_rate(fed_cfg: FedConfig, n_samples: int) -> float:
    """Per-step Poisson sampling rate q of a shard with ``n_samples`` rows."""
    return min(1.0, fed_cfg.batch_size / n_samples)


def _add_proximal_term(grad: np.ndarray, flat: np.ndarray, anchor: np.ndarray,
                       mu: float) -> None:
    """grad += mu * (flat - anchor), in place, block by block.

    Each element gets the operations of the whole-vector expression, so the
    result is bit-equal to it, without its three P-sized temporaries. The
    scratch block dies on return, before the Adam step allocates its own.
    """
    for s, (term,) in blocks(grad.size, 1):
        np.subtract(flat[s], anchor[s], out=term)
        term *= mu
        acc = grad[s]
        acc += term


def client_local_update(global_flat: np.ndarray, manifest: dict,
                        client: ClientState, data: ClientDataset,
                        schedule: NoiseSchedule, fed_cfg: FedConfig,
                        dp_cfg: DpConfig, rng) -> tuple:
    """Run ``local_steps`` optimizer steps from the current global params.

    Returns (updated flat params, stats dict). The RNG is consumed in a fixed
    order per step — batch draw, then per-sample (t, noise), then DP noise —
    so one seeded generator fully determines the client's round.
    """
    params = DenoiserParams.from_flat(global_flat.copy(), manifest)
    flat = params.flatten()
    anchor = global_flat
    n = data.n_samples
    mechanism = dp_cfg.mechanism_active
    q = _sampling_rate(fed_cfg, n)
    losses: list = []
    pre_norms: list = []   # one (B,) norm array per step
    post_norms: list = []
    for step in range(fed_cfg.local_steps):
        if mechanism:
            idx = np.flatnonzero(rng.random(n) < q)
        else:
            idx = rng.choice(n, size=min(fed_cfg.batch_size, n), replace=False)
        if client.accountant is not None:
            client.accountant.account_step(q, client.sigma)
        if idx.size == 0:
            continue
        cat_rows = data.cat_rows[idx]
        x0 = np.hstack([data.numeric[idx]]
                       + [e[r] for e, r in zip(params.embeddings, cat_rows.T)])
        batch = []
        for x0_i, rows_i in zip(x0, cat_rows):
            x_t, t, eps_vec = make_training_example(x0_i, rng, schedule)
            emb_rows = rows_i if cat_rows.shape[1] else None
            batch.append(TrainingSample(x_t, t, eps_vec, emb_rows=emb_rows,
                                        emb_coeff=math.sqrt(schedule.alpha_bar(t))))
        try:
            grads, loss = per_sample_grads(params, batch)
        except DivergenceError as exc:
            raise DivergenceError(
                f"client {client.client_id}, local step {step}: {exc}") from exc
        pre_norms.append(grads.norms)
        if mechanism:
            grad = privatize(grads, dp_cfg.clip_norm, client.sigma, rng)
            post_norms.append(np.minimum(grads.norms, dp_cfg.clip_norm))
        else:
            grad = GradientVector(grads.weighted_sum(np.ones(len(grads))) / len(grads))
            post_norms.append(grads.norms)
        if fed_cfg.strategy == "fedprox" and fed_cfg.prox_mu != 0.0:
            _add_proximal_term(grad.values, flat, anchor, fed_cfg.prox_mu)
        adam_step(flat, client.adam, grad)
        del grad  # else it stays alive while the next step builds its own
        if not np.all(np.isfinite(flat)):
            raise DivergenceError(
                f"client {client.client_id} diverged at local step {step}")
        losses.append(loss)
    stats = {
        "loss": float(np.mean(losses)) if losses else None,
        "grad_norm_pre": float(np.mean(np.concatenate(pre_norms))) if pre_norms else None,
        "grad_norm_post": float(np.mean(np.concatenate(post_norms))) if post_norms else None,
        "steps": fed_cfg.local_steps,
        "q": q,
        "sigma": client.sigma,
    }
    return flat, stats


# ---------------------------------------------------------------------------
# Round loop


def _budget_allows(client: ClientState, fed_cfg: FedConfig, dp_cfg: DpConfig) -> bool:
    if client.accountant is None:
        return True
    projected = client.accountant.projected_epsilon(
        client.delta, _sampling_rate(fed_cfg, client.n_samples), client.sigma,
        fed_cfg.local_steps)
    return projected <= dp_cfg.epsilon


def run_round(state: FederatedState, datasets: list, schedule: NoiseSchedule,
              fed_cfg: FedConfig, dp_cfg: DpConfig, seed: int) -> list | None:
    """Execute one communication round in place.

    Returns the audit records for the round, or None when every client's
    remaining budget is too small for another local pass (early stop).
    """
    r = state.round
    eligible = [c.client_id for c in state.clients
                if _budget_allows(c, fed_cfg, dp_cfg)]
    if not eligible:
        state.stopped_early = True
        return None
    take = min(fed_cfg.clients_per_round, len(eligible))
    selection_rng = np.random.default_rng([seed, 0, r])
    chosen = sorted(selection_rng.choice(np.asarray(eligible), size=take,
                                         replace=False).tolist())

    updates = []
    audit = []
    for cid in chosen:
        client = state.clients[cid]
        rng = np.random.default_rng([seed, 1 + cid, r])
        flat, stats = client_local_update(state.global_flat, state.manifest,
                                          client, datasets[cid], schedule,
                                          fed_cfg, dp_cfg, rng)
        updates.append((flat, client.n_samples))
        audit.append({"round": r + 1, "client": cid,
                      "epsilon": client.current_epsilon(), **stats})

    if fed_cfg.strategy in ("fedadam", "fedyogi"):
        state.global_flat = server_opt_aggregate(state.global_flat, updates,
                                                 state.server, fed_cfg)
    else:
        state.global_flat = fedavg_aggregate(updates)
    state.round += 1
    return audit


def init_state(init_params: DenoiserParams, datasets: list, fed_cfg: FedConfig,
               dp_cfg: DpConfig) -> FederatedState:
    """Fresh training state: zero moments, calibrated per-client noise."""
    if not datasets:
        raise ValidationError("train needs at least one client shard")
    flat = init_params.flatten().copy()
    clients = []
    for cid, data in enumerate(datasets):
        sigma = dp_cfg.noise_multiplier
        delta = None
        accountant = None
        if dp_cfg.accounting_active:
            delta = dp_cfg.delta if dp_cfg.delta is not None else 1.0 / data.n_samples
            if sigma is None:
                planned = fed_cfg.local_steps * fed_cfg.rounds
                sigma = calibrate_sigma(dp_cfg.epsilon, delta,
                                        _sampling_rate(fed_cfg, data.n_samples), planned)
            accountant = RdpAccountant()
        clients.append(ClientState(cid, AdamState.zeros(flat.size, fed_cfg.learning_rate),
                                   accountant, sigma, delta, data.n_samples))
    return FederatedState(flat, init_params.manifest(), clients,
                          ServerOptState(np.zeros(flat.size), np.zeros(flat.size)))


def train(datasets: list, init_params: DenoiserParams, schedule: NoiseSchedule,
          fed_cfg: FedConfig, dp_cfg: DpConfig, seed: int,
          state: FederatedState | None = None,
          stop_after_round: int | None = None,
          round_callback=None) -> tuple:
    """Run the federated loop; returns (TrainResult, FederatedState).

    Pass a previously saved ``state`` to resume; ``stop_after_round`` halts
    the session once that many total rounds are complete (for interruption
    tests and staged runs). ``round_callback(state, audit_lines)`` fires after
    every round, e.g. to write periodic checkpoints.
    """
    if state is None:
        state = init_state(init_params, datasets, fed_cfg, dp_cfg)
        if dp_cfg.accounting_active:
            if not any(_budget_allows(c, fed_cfg, dp_cfg) for c in state.clients):
                raise PrivacyBudgetError(
                    f"epsilon target {dp_cfg.epsilon} cannot cover even one "
                    f"round of {fed_cfg.local_steps} local steps")
    audit: list = []
    limit = fed_cfg.rounds if stop_after_round is None else min(
        fed_cfg.rounds, stop_after_round)
    while state.round < limit:
        lines = run_round(state, datasets, schedule, fed_cfg, dp_cfg, seed)
        if lines is None:
            break
        audit.extend(lines)
        if round_callback is not None:
            round_callback(state, lines)
    epsilons = {c.client_id: c.current_epsilon() for c in state.clients
                if c.accountant is not None}
    result = TrainResult(state.params, audit, state.round,
                         epsilons, state.stopped_early)
    return result, state
