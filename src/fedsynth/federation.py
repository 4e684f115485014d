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

A round's clients are independent until aggregation, so a round whose model
has at least ``CONCURRENT_MIN_PARAMS`` parameters trains up to one client
per usable CPU at once, on worker threads. The aggregate still reads the
clients' vectors in client order, so every output is bit-identical to
training them one after another.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import encoded_rows
from .diffusion import NoiseSchedule, make_training_example
from .dp import DpConfig, RdpAccountant, calibrate_sigma, privatize
from .errors import (DivergenceError, PrivacyBudgetError, ValidationError,
                     require_int, require_number)
from .nn import (BLOCK, DEFAULT_LEARNING_RATE, AdamState, DenoiserParams, TrainingSample,
                 _usable_cpus, adam_step, blocks, per_sample_grads)

STRATEGIES = ("fedavg", "fedadam", "fedprox", "fedyogi")
# The strategies whose server keeps Adam-style moments across rounds
SERVER_OPTIMIZERS = ("fedadam", "fedyogi")
DEFAULT_BATCH_SIZE = 16
# FedAdam/FedYogi server moment decay rates and denominator floor
# (Reddi et al. 2021, "Adaptive federated optimization")
SERVER_BETA1 = 0.9
SERVER_BETA2 = 0.999
SERVER_EPS = 1e-8
# Smallest parameter count at which a round trains its clients on worker
# threads. Below it the per-sample Python work holds the GIL, and threads
# slowed rounds down (desk width and H = 256) instead of speeding them up
# (H = 512 and wider).
CONCURRENT_MIN_PARAMS = 16 * BLOCK


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
    learning_rate: float = DEFAULT_LEARNING_RATE
    server_lr: float = 1.0

    def __post_init__(self):
        for name in ("n_clients", "rounds", "local_steps", "clients_per_round",
                     "batch_size"):
            require_int(getattr(self, name), f"federation.{name}", 1)
        if self.strategy not in STRATEGIES:
            raise ValidationError(
                f"unknown strategy {self.strategy!r}; pick one of {STRATEGIES}")
        if self.clients_per_round > self.n_clients:
            raise ValidationError("need 1 <= clients_per_round <= n_clients")
        for name in ("learning_rate", "server_lr", "prox_mu"):
            require_number(getattr(self, name), f"federation.{name}")
        if not (0.0 < self.learning_rate < math.inf and 0.0 < self.server_lr < math.inf):
            raise ValidationError("learning rates must be positive and finite")
        if not 0.0 <= self.prox_mu < math.inf:
            raise ValidationError("prox_mu must be non-negative and finite")


@dataclass(frozen=True)
class ClientDataset:
    """One client's encoded shard: numeric block plus embedding row indices."""

    numeric: np.ndarray
    cat_rows: np.ndarray

    def __post_init__(self):
        numeric = np.asarray(self.numeric, dtype=np.float64)
        cat_rows = np.asarray(self.cat_rows, dtype=np.int64)
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
    """Slice an encoded table into per-client shards, one per row-index array."""
    numeric = pipeline.encode_numeric(table)
    cat_rows = pipeline.category_indices(table)
    return [ClientDataset(numeric[rows], cat_rows[rows]) for rows in partitions]


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
class FederatedState:
    """Everything needed to continue training from round ``round``; ``server``
    is None unless the strategy is one of ``SERVER_OPTIMIZERS``."""

    global_flat: np.ndarray
    manifest: dict
    clients: list
    server: AdamState | None
    round: int = 0
    stopped_early: bool = False


# ---------------------------------------------------------------------------
# Aggregation


def fedavg_aggregate(updates) -> np.ndarray:
    """Sample-count-weighted mean of client parameter vectors.

    ``updates`` is an iterable of (flat params, sample count), read once, so
    a generator can compute each client's vector only when it is needed and
    drop it before computing the next. Each element is summed over the
    clients in order from zero, block by block, and divided by the weight sum
    after the last client.
    """
    total = None
    weight_sum = 0.0
    for vec, weight in updates:
        if total is None:
            total = np.zeros(vec.size)
        elif vec.size != total.size:
            raise ValidationError("client parameter vectors differ in length")
        weight = float(weight)
        weight_sum += weight
        for s, (term,) in blocks(total.size, 1):
            np.multiply(vec[s], weight, out=term)
            acc = total[s]
            acc += term
        del vec  # else it stays alive while the next update is computed
    if total is None:
        raise ValidationError("nothing to aggregate")
    if weight_sum <= 0.0:
        raise ValidationError("aggregation weights must sum to a positive value")
    total /= weight_sum
    return total


def server_opt_aggregate(global_flat: np.ndarray, updates,
                         state: AdamState, cfg: FedConfig) -> np.ndarray:
    """One adaptive server step on the pseudo-gradient.

    Delta = current global minus the FedAvg of client params (``updates`` as
    for ``fedavg_aggregate``). The first moment is bias-corrected; the second
    is not (standard federated-optimizer convention). FedYogi's
    sign-controlled second moment matches FedAdam on the first update from
    zero moments. The moments are updated in place and the new global vector
    is written over the FedAvg result, block by block.
    """
    if cfg.strategy not in SERVER_OPTIMIZERS:
        raise ValidationError(f"server optimizer got strategy {cfg.strategy!r}")
    if state.m.shape != global_flat.shape or state.v.shape != global_flat.shape:
        raise ValidationError("server optimizer state shape mismatch")
    out = fedavg_aggregate(updates)
    state.t += 1
    b1, b2 = SERVER_BETA1, SERVER_BETA2
    bias1 = 1.0 - b1 ** state.t
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
        d2 += SERVER_EPS
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


def client_buffers(n_params: int) -> tuple:
    """A client's two P-vectors, uninitialised: the parameters it trains and
    the scratch each local step's gradient is written into."""
    return np.empty(n_params), np.empty(n_params)


def client_local_update(global_flat: np.ndarray, manifest: dict,
                        client: ClientState, data: ClientDataset,
                        schedule: NoiseSchedule, fed_cfg: FedConfig,
                        dp_cfg: DpConfig, rng, buffers: tuple | None = None) -> tuple:
    """Run ``local_steps`` optimizer steps from the current global params.

    Returns (updated flat params, stats dict). The RNG is consumed in a fixed
    order per step — batch draw, then per-sample (t, noise), then DP noise —
    so one seeded generator fully determines the client's round.
    ``buffers`` is the pair ``client_buffers`` returns: the global
    parameters are copied into its first vector and trained there, and that
    vector is returned. Without it the pair is allocated here.
    """
    flat, grad = buffers if buffers is not None else client_buffers(global_flat.size)
    np.copyto(flat, global_flat)
    params = DenoiserParams.from_flat(flat, manifest)
    anchor = global_flat
    n = data.n_samples
    mechanism = dp_cfg.mechanism_active
    q = _sampling_rate(fed_cfg, n)
    losses: list = []
    pre_norms: list = []   # one (B,) norm array per step
    post_norms: list = []
    if client.accountant is not None:
        # the whole pass, empty batches included, as one ledger entry
        client.accountant.account_step(q, client.sigma, fed_cfg.local_steps)
    for step in range(fed_cfg.local_steps):
        if mechanism:
            idx = np.flatnonzero(rng.random(n) < q)
        else:
            idx = rng.choice(n, size=min(fed_cfg.batch_size, n), replace=False)
        if idx.size == 0:
            continue
        cat_rows = data.cat_rows[idx]
        x0 = encoded_rows(data.numeric[idx], cat_rows, params.embeddings)
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
            privatize(grads, dp_cfg.clip_norm, client.sigma, rng, grad)
            post_norms.append(np.minimum(grads.norms, dp_cfg.clip_norm))
        else:
            grads.weighted_sum(np.ones(len(grads)), out=grad)
            grad /= len(grads)
            post_norms.append(grads.norms)
        if fed_cfg.strategy == "fedprox" and fed_cfg.prox_mu != 0.0:
            _add_proximal_term(grad, flat, anchor, fed_cfg.prox_mu)
        adam_step(flat, client.adam, grad, fed_cfg.learning_rate)
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

    The chosen clients train on a pool of W = min(clients, usable CPUs)
    threads, made for the round, when the model has at least
    ``CONCURRENT_MIN_PARAMS`` parameters, and inline, with no thread,
    otherwise (W = 1). At most W client updates are alive at once, running
    or waiting for the aggregate: the next client starts once the aggregate
    has added the oldest one's vector and freed it. Each client's two
    P-vectors are allocated here, in this thread. Vectors, audit lines and
    errors are read in client order; a client's error is raised once the
    other running clients have finished.
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

    window = (1 if state.global_flat.size < CONCURRENT_MIN_PARAMS
              else min(take, _usable_cpus()))
    pool = (ThreadPoolExecutor(max_workers=window, thread_name_prefix="fedsynth-client")
            if window > 1 else None)
    audit = []

    def start(cid):
        """Client ``cid``'s update as a call that returns it: run inline when
        called if W = 1, else already submitted to the pool."""
        update = functools.partial(
            client_local_update, state.global_flat, state.manifest,
            state.clients[cid], datasets[cid], schedule, fed_cfg, dp_cfg,
            np.random.default_rng([seed, 1 + cid, r]),
            client_buffers(state.global_flat.size))
        return update if pool is None else pool.submit(update).result

    def updates():
        """Each chosen client's update, in client order, as the aggregate reads it."""
        pending = deque(start(cid) for cid in chosen[:window])
        for i, cid in enumerate(chosen):
            flat, stats = pending.popleft()()
            client = state.clients[cid]
            audit.append({"round": r + 1, "client": cid,
                          "epsilon": client.current_epsilon(), **stats})
            yield flat, client.n_samples
            del flat  # the aggregate has added it; free it before the next client
            if i + window < len(chosen):
                pending.append(start(chosen[i + window]))

    stream = updates()
    try:
        if fed_cfg.strategy in SERVER_OPTIMIZERS:
            state.global_flat = server_opt_aggregate(state.global_flat, stream,
                                                     state.server, fed_cfg)
        else:
            state.global_flat = fedavg_aggregate(stream)
    finally:
        stream.close()
        if pool is not None:
            pool.shutdown()  # running clients finish before an error leaves
    state.round += 1
    return audit


def init_state(init_params: DenoiserParams, datasets: list, fed_cfg: FedConfig,
               dp_cfg: DpConfig) -> FederatedState:
    """Fresh training state: zero moments, calibrated per-client noise.

    Calibration runs once per distinct (delta, q): clients with equal shard
    sizes share the bisection's result. The state holds a copy of
    ``init_params``, so a caller that keeps no reference to them frees their
    P-vector on return. Raises ``PrivacyBudgetError`` when no client's budget
    covers one round.
    """
    if not datasets:
        raise ValidationError("train needs at least one client shard")
    flat = init_params.flat.copy()
    clients = []
    calibrated: dict = {}
    for cid, data in enumerate(datasets):
        sigma = dp_cfg.noise_multiplier
        delta = None
        accountant = None
        if dp_cfg.accounting_active:
            delta = dp_cfg.client_delta(cid, data.n_samples)
            if sigma is None:
                key = (delta, _sampling_rate(fed_cfg, data.n_samples))
                if key not in calibrated:
                    calibrated[key] = calibrate_sigma(
                        dp_cfg.epsilon, delta, key[1],
                        fed_cfg.local_steps * fed_cfg.rounds)
                sigma = calibrated[key]
            accountant = RdpAccountant()
        clients.append(ClientState(cid, AdamState.zeros(flat.size), accountant, sigma,
                                   delta, data.n_samples))
    if not any(_budget_allows(c, fed_cfg, dp_cfg) for c in clients):
        raise PrivacyBudgetError(
            f"epsilon target {dp_cfg.epsilon} cannot cover even one "
            f"round of {fed_cfg.local_steps} local steps")
    server = AdamState.zeros(flat.size) if fed_cfg.strategy in SERVER_OPTIMIZERS else None
    return FederatedState(flat, init_params.manifest(), clients, server)


def train(state: FederatedState, datasets: list, schedule: NoiseSchedule,
          fed_cfg: FedConfig, dp_cfg: DpConfig, seed: int,
          stop_after_round: int | None = None, round_callback=None) -> list:
    """Advance ``state`` in place round by round; returns this session's audit lines.

    Training stops after ``fed_cfg.rounds`` rounds in all, when no client's
    budget covers another round (``state.stopped_early``), or once
    ``stop_after_round`` rounds in all are complete (for interruption tests
    and staged runs). ``round_callback(state, audit_lines)`` fires after
    every round, e.g. to write periodic checkpoints.
    """
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
    return audit
