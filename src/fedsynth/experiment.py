"""Experiment orchestration: config files, run commands, sweeps, persistence.

A run directory is produced in stages — prepare (pipeline + partitions),
train (checkpoint + audit + manifest), generate (synthetic CSV), evaluate
(metrics report) — each stage a plain function usable from the CLI or from
library code. Sweeps fan the same stages out over config axes with per-cell
directories and resumable cells.

The environment variable FEDSYNTH_OUTPUT_ROOT, when set, is prepended to
relative output directories.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import platform
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import diffusion as diff
from . import federation as fed
from .data import (ClientPartition, EncodingPipeline, RawTable, TabularSchema,
                   load_csv, load_partitions, partition_iid, partition_noniid,
                   save_partitions, write_csv)
from .dp import DpConfig, RdpAccountant
from .errors import CheckpointError, FedsynthError, ValidationError
from .federation import FedConfig, FederatedState, make_client_datasets
from .metrics import MetricsReport, evaluate_tables
from .nn import AdamState, DenoiserParams, forward, init_denoiser, layer_buffers
from .store import (canonical_json, json_digest, load_arrays, read_json,
                    save_arrays, write_json)

OUTPUT_ROOT_ENV = "FEDSYNTH_OUTPUT_ROOT"
CHECKPOINT_FORMAT = "fedsynth-checkpoint-v1"

PIPELINE_FILE = "pipeline.json"
PARTITIONS_FILE = "partitions.json"
PARTITION_SUMMARY_FILE = "partition_summary.json"
CHECKPOINT_FILE = "checkpoint.npz"
AUDIT_FILE = "audit.jsonl"
MANIFEST_FILE = "manifest.json"
SYNTHETIC_FILE = "synthetic.csv"
REPORT_FILE = "report.json"
SWEEP_RESULTS_FILE = "sweep_results.json"


@dataclass(frozen=True)
class Seeds:
    """The three independent randomness roots of a run."""

    model: int = 0
    data: int = 1
    attack: int = 2

    def __post_init__(self):
        for name in ("model", "data", "attack"):
            if getattr(self, name) < 0:
                raise ValidationError(f"seed {name!r} must be non-negative")


@dataclass(frozen=True)
class ModelConfig:
    hidden_width: int = 1024
    n_hidden: int = 3
    time_dim: int = 64
    n_quantiles: int = 1000

    def __post_init__(self):
        if self.hidden_width < 1 or self.n_hidden < 1:
            raise ValidationError("model width/depth must be >= 1")
        # sine/cosine pairs: 0 would train a denoiser with no time input
        if not isinstance(self.time_dim, int) or self.time_dim < 2 or self.time_dim % 2:
            raise ValidationError(
                f"model.time_dim must be a positive even integer, got {self.time_dim!r}")


@dataclass(frozen=True)
class DiffusionConfig:
    timesteps: int = 500
    beta_start: float = 1e-4
    beta_end: float = 0.02

    def schedule(self) -> diff.NoiseSchedule:
        return diff.linear_schedule(self.timesteps, self.beta_start, self.beta_end)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = ""
    schema: str = ""
    output_dir: str = "runs/run"
    partition: str = "noniid"
    n_rows: int = 1000
    n_attacks: int = 500
    test_fraction: float = 0.2
    checkpoint_every: int = 0
    sweep: dict = field(default_factory=dict)
    seeds: Seeds = field(default_factory=Seeds)
    model: ModelConfig = field(default_factory=ModelConfig)
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    federation: FedConfig = field(default_factory=FedConfig)
    dp: DpConfig = field(default_factory=DpConfig)

    def __post_init__(self):
        if self.partition not in ("noniid", "iid"):
            raise ValidationError("partition must be 'noniid' or 'iid'")
        if self.n_rows < 1:
            raise ValidationError("n_rows must be >= 1")
        if self.n_attacks < 1:
            raise ValidationError("n_attacks must be >= 1")

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        if math.isinf(d["dp"]["epsilon"]):
            d["dp"]["epsilon"] = "inf"
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        subs = {name: d.pop(name, {}) for name in ("seeds", "model", "diffusion",
                                                   "federation")}
        dp_dict = dict(d.pop("dp", {}))
        if isinstance(dp_dict.get("epsilon"), str):
            if dp_dict["epsilon"].lower() not in ("inf", "infinity"):
                raise ValidationError(f"bad epsilon value {dp_dict['epsilon']!r}")
            dp_dict["epsilon"] = math.inf
        if dp_dict.get("epsilon") is None:
            dp_dict["epsilon"] = math.inf
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        # An unknown or mistyped key inside a sub-config surfaces as TypeError.
        try:
            return cls(**d, seeds=Seeds(**subs["seeds"]),
                       model=ModelConfig(**subs["model"]),
                       diffusion=DiffusionConfig(**subs["diffusion"]),
                       federation=FedConfig(**subs["federation"]),
                       dp=DpConfig(**dp_dict))
        except TypeError as exc:
            raise ValidationError(f"malformed config: {exc}") from exc

    @classmethod
    def from_file(cls, path, overrides: list | None = None) -> "ExperimentConfig":
        try:
            raw = read_json(path)
        except OSError as exc:
            raise ValidationError(f"cannot read config {path!r}: {exc}") from exc
        except ValueError as exc:
            raise ValidationError(f"config {path!r} is not valid JSON: {exc}") from exc
        for item in overrides or []:
            raw = _apply_override(raw, item)
        return cls.from_dict(raw)

    @property
    def digest(self) -> str:
        return json_digest(self.to_dict())

    def resolved_output_dir(self) -> str:
        root = os.environ.get(OUTPUT_ROOT_ENV)
        if root and not os.path.isabs(self.output_dir):
            return os.path.join(root, self.output_dir)
        return self.output_dir

    def replace(self, **kwargs) -> "ExperimentConfig":
        """Return a copy with fields replaced.

        Keys may use dotted paths into sub-configs, e.g.
        ``replace(**{"federation.rounds": 10})``.
        """
        dotted = {k: v for k, v in kwargs.items() if "." in k}
        plain = {k: v for k, v in kwargs.items() if "." not in k}
        out = dataclasses.replace(self, **plain) if plain else self
        if dotted:
            raw = out.to_dict()
            for key, value in dotted.items():
                raw = _set_dotted(raw, key, value)
            out = ExperimentConfig.from_dict(raw)
        return out


def _set_dotted(raw: dict, key: str, value) -> dict:
    """Copy of the config dict ``raw`` with ``value`` at the dotted path ``key``.

    Only the dicts along the path are copied; missing ones are created.
    """
    *parents, leaf = key.split(".")
    out = dict(raw)
    node = out
    for part in parents:
        node[part] = dict(node.get(part, {}))
        node = node[part]
    node[leaf] = value
    return out


def _parse_override_value(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return text


def _apply_override(raw: dict, item: str) -> dict:
    if "=" not in item:
        raise ValidationError(f"override {item!r} must look like key=value")
    key, value = item.split("=", 1)
    return _set_dotted(raw, key.strip(), _parse_override_value(value.strip()))


def desk_preset(**kwargs) -> ExperimentConfig:
    """Laptop-friendly profile: small net, short federated schedule."""
    base = dict(
        model=ModelConfig(hidden_width=128),
        federation=FedConfig(n_clients=3, rounds=50, local_steps=20),
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# Checkpointing


def save_checkpoint(path, state: FederatedState, config_digest: str,
                    pipeline_digest: str, seeds: Seeds) -> None:
    arrays = {"global_flat": state.global_flat,
              "server_m": state.server.m, "server_v": state.server.v}
    client_meta = []
    for c in state.clients:
        arrays[f"adam_m_{c.client_id}"] = c.adam.m
        arrays[f"adam_v_{c.client_id}"] = c.adam.v
        if c.accountant is not None:
            acc = c.accountant.state_arrays()
            arrays[f"acc_q_{c.client_id}"] = acc["qs"]
            arrays[f"acc_sigma_{c.client_id}"] = acc["sigmas"]
            arrays[f"acc_count_{c.client_id}"] = acc["counts"]
        client_meta.append({
            "client_id": c.client_id,
            "adam_t": c.adam.t,
            "adam_lr": c.adam.lr,
            "sigma": c.sigma,
            "delta": c.delta,
            "n_samples": c.n_samples,
            "has_accountant": c.accountant is not None,
        })
    meta = {
        "format": CHECKPOINT_FORMAT,
        "manifest": state.manifest,
        "round": state.round,
        "server_updates": state.server.updates,
        "stopped_early": state.stopped_early,
        "clients": client_meta,
        "config_digest": config_digest,
        "pipeline_digest": pipeline_digest,
        "seeds": dataclasses.asdict(seeds),
    }
    save_arrays(path, arrays, meta)


def _read_checkpoint(path, names=None) -> tuple:
    """``load_arrays`` of a training checkpoint, optionally of some arrays only."""
    arrays, meta = load_arrays(path, names)
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path!r} is not a training checkpoint")
    return arrays, meta


def load_checkpoint(path) -> tuple:
    arrays, meta = _read_checkpoint(path)
    clients = []
    for cm in meta["clients"]:
        cid = cm["client_id"]
        adam = AdamState(arrays[f"adam_m_{cid}"], arrays[f"adam_v_{cid}"],
                         t=int(cm["adam_t"]), lr=float(cm["adam_lr"]))
        accountant = None
        if cm["has_accountant"]:
            accountant = RdpAccountant.from_state_arrays(
                arrays.get(f"acc_q_{cid}", np.zeros(0)),
                arrays.get(f"acc_sigma_{cid}", np.zeros(0)),
                arrays.get(f"acc_count_{cid}", np.zeros(0, dtype=np.int64)))
        clients.append(fed.ClientState(cid, adam, accountant, cm["sigma"],
                                       cm["delta"], int(cm["n_samples"])))
    state = FederatedState(
        arrays["global_flat"], meta["manifest"], clients,
        fed.ServerOptState(arrays["server_m"], arrays["server_v"],
                           int(meta["server_updates"])),
        round=int(meta["round"]),
        stopped_early=bool(meta["stopped_early"]),
    )
    return state, meta


# ---------------------------------------------------------------------------
# Stage commands


def _paths(config: ExperimentConfig) -> dict:
    out = config.resolved_output_dir()
    return {name: os.path.join(out, fname) for name, fname in [
        ("dir", ""), ("pipeline", PIPELINE_FILE), ("partitions", PARTITIONS_FILE),
        ("summary", PARTITION_SUMMARY_FILE), ("checkpoint", CHECKPOINT_FILE),
        ("audit", AUDIT_FILE), ("manifest", MANIFEST_FILE),
        ("synthetic", SYNTHETIC_FILE), ("report", REPORT_FILE),
        ("sweep_results", SWEEP_RESULTS_FILE)]}


def _load_inputs(config: ExperimentConfig) -> RawTable:
    if not config.dataset or not config.schema:
        raise ValidationError("config must set dataset and schema paths")
    if not os.path.exists(config.schema):
        raise ValidationError(f"schema file {config.schema!r} does not exist")
    if not os.path.exists(config.dataset):
        raise ValidationError(f"dataset file {config.dataset!r} does not exist")
    schema = TabularSchema.load(config.schema)
    return load_csv(config.dataset, schema)


def cmd_prepare(config: ExperimentConfig) -> dict:
    """Fit the encoding pipeline and the client partition; write both."""
    table = _load_inputs(config)
    paths = _paths(config)
    os.makedirs(paths["dir"], exist_ok=True)

    pipeline = EncodingPipeline.fit(table, n_quantiles=config.model.n_quantiles,
                                    embed_seed=config.seeds.data)
    pipeline.save(paths["pipeline"])

    n_clients = config.federation.n_clients
    if n_clients == 1:
        partitions = [ClientPartition(0, np.arange(table.n_rows))]
    elif config.partition == "iid":
        partitions = partition_iid(table, n_clients, config.seeds.data)
    else:
        if table.schema.partition_column is None:
            raise ValidationError(
                "non-IID partitioning needs schema.partition_by")
        partitions = partition_noniid(table, table.schema.partition_column,
                                      n_clients, config.seeds.data)
    save_partitions(paths["partitions"], partitions)
    summary = {
        "n_rows": table.n_rows,
        "partition": config.partition,
        "counts": {str(p.client_id): p.n_samples for p in partitions},
        "config_digest": config.digest,
    }
    write_json(paths["summary"], summary)
    return summary


def _require(path: str, hint: str) -> None:
    if not os.path.exists(path):
        raise ValidationError(f"missing {path!r}; run {hint} first")


def _keep_audit_through(path: str, last_round: int) -> None:
    """Drop the audit lines of rounds after ``last_round``.

    Lines are appended as each round completes, so after a crash the file
    can hold rounds the resumed checkpoint does not; those rounds rerun.
    """
    kept = []
    if last_round > 0 and os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            kept = [line for line in fh if json.loads(line)["round"] <= last_round]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(kept)


def cmd_train(config: ExperimentConfig, resume: bool = False,
              stop_after_round: int | None = None) -> dict:
    """Run federated training; write checkpoint, audit log, and manifest."""
    paths = _paths(config)
    _require(paths["pipeline"], "prepare")
    _require(paths["partitions"], "prepare")
    table = _load_inputs(config)
    pipeline = EncodingPipeline.load(paths["pipeline"])
    partitions = load_partitions(paths["partitions"])
    datasets = make_client_datasets(pipeline, table, partitions)
    schedule = config.diffusion.schedule()

    state = None
    if resume:
        _require(paths["checkpoint"], "train (nothing to resume)")
        state, meta = load_checkpoint(paths["checkpoint"])
        if meta["config_digest"] != config.digest:
            raise CheckpointError(
                "checkpoint was produced by a different config; refusing to resume")
        if meta["pipeline_digest"] != pipeline.digest:
            raise CheckpointError("checkpoint does not match the fitted pipeline")
    _keep_audit_through(paths["audit"], state.round if resume else 0)

    init_params = init_denoiser(
        pipeline.encoded_width, hidden_width=config.model.hidden_width,
        n_hidden=config.model.n_hidden, time_dim=config.model.time_dim,
        embeddings=pipeline.initial_embeddings(),
        rng=np.random.default_rng([config.seeds.model]))

    def round_cb(st, lines):
        with open(paths["audit"], "a", encoding="utf-8") as fh:
            fh.writelines(canonical_json(line) + "\n" for line in lines)
        every = config.checkpoint_every
        if every > 0 and st.round % every == 0:
            save_checkpoint(paths["checkpoint"], st, config.digest,
                            pipeline.digest, config.seeds)

    started = time.time()
    result, state = fed.train(datasets, init_params, schedule,
                              config.federation, config.dp, config.seeds.model,
                              state=state, stop_after_round=stop_after_round,
                              round_callback=round_cb)
    save_checkpoint(paths["checkpoint"], state, config.digest,
                    pipeline.digest, config.seeds)

    manifest = {
        "config_digest": config.digest,
        "pipeline_digest": pipeline.digest,
        "rounds_completed": result.rounds_completed,
        "stopped_early": result.stopped_early,
        "epsilons": {str(k): v for k, v in result.epsilons.items()},
        "wall_time_s": round(time.time() - started, 3),
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
    }
    write_json(paths["manifest"], manifest)
    return manifest


def cmd_generate(config: ExperimentConfig, checkpoint_path: str | None = None,
                 n_rows: int | None = None, seed: int | None = None,
                 out_path: str | None = None) -> str:
    """Sample synthetic rows from a checkpoint and decode them to CSV."""
    paths = _paths(config)
    checkpoint_path = checkpoint_path or paths["checkpoint"]
    _require(paths["pipeline"], "prepare")
    _require(checkpoint_path, "train")
    pipeline = EncodingPipeline.load(paths["pipeline"])
    # sampling reads only the global model: no client state, no accountant
    arrays, meta = _read_checkpoint(checkpoint_path, names=("global_flat",))
    if meta["pipeline_digest"] != pipeline.digest:
        raise CheckpointError("checkpoint does not match the fitted pipeline")
    params = DenoiserParams.from_flat(arrays["global_flat"], meta["manifest"])
    if params.d_enc != pipeline.encoded_width:
        raise CheckpointError("checkpoint width does not match the pipeline schema")

    n_rows = n_rows if n_rows is not None else config.n_rows
    seed = seed if seed is not None else config.seeds.model
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    if n_rows < 1:
        raise ValidationError("n_rows must be >= 1")
    rng = np.random.default_rng([seed, 0])  # block 0; blocks would be [seed, b]
    # The denoiser runs on a float32 copy (sampling is post-processing, so
    # precision does not touch ε); the chain's update, its noise and decode
    # stay float64, and decode reads the checkpoint's float64 tables.
    sampler = params.astype(np.float32)
    buffers = layer_buffers(sampler, n_rows)
    encoded = diff.generate(lambda x, t: forward(sampler, x, t, buffers),
                            n_rows, params.d_enc, config.diffusion.schedule(), rng)
    table = pipeline.decode(encoded, embeddings=params.embeddings)
    out_path = out_path or paths["synthetic"]
    write_csv(out_path, table)
    return out_path


def cmd_evaluate(real_csv: str, syn_csv: str, schema_path: str, seed: int = 2,
                 n_attacks: int = 500, test_fraction: float = 0.2,
                 out_path: str | None = None,
                 metadata: dict | None = None) -> MetricsReport:
    """Score a synthetic CSV against the real CSV; optionally write a report."""
    schema = TabularSchema.load(schema_path)
    real = load_csv(real_csv, schema)
    syn = load_csv(syn_csv, schema)
    meta = {"real": os.path.basename(real_csv), "syn": os.path.basename(syn_csv)}
    if metadata:
        meta.update(metadata)
    report = evaluate_tables(real, syn, seed=seed, n_attacks=n_attacks,
                             test_fraction=test_fraction, metadata=meta)
    if out_path:
        write_json(out_path, report.to_dict())
    return report


def run_pipeline(config: ExperimentConfig) -> MetricsReport:
    """prepare -> train -> generate -> evaluate in one call."""
    cmd_prepare(config)
    cmd_train(config)
    syn_path = cmd_generate(config)
    paths = _paths(config)
    report = cmd_evaluate(config.dataset, syn_path, config.schema,
                          seed=config.seeds.attack, n_attacks=config.n_attacks,
                          test_fraction=config.test_fraction,
                          out_path=paths["report"],
                          metadata={"config_digest": config.digest})
    return report


# ---------------------------------------------------------------------------
# Sweeps


_AXIS_ALIASES = {
    "epsilon": "dp.epsilon",
    "local_steps": "federation.local_steps",
    "n_clients": "federation.n_clients",
    "strategy": "federation.strategy",
    "rounds": "federation.rounds",
}


def _cell_config(config: ExperimentConfig, assignment: dict) -> ExperimentConfig:
    raw = config.to_dict()
    raw["sweep"] = {}
    for key, value in assignment.items():
        key = _AXIS_ALIASES.get(key, key)
        if key == "seed":
            key, value = "seeds", {"model": value, "data": value + 1,
                                   "attack": value + 2}
        raw = _set_dotted(raw, key, value)
    return ExperimentConfig.from_dict(raw)


def _axis_label(value):
    """Sweep axis value as written to names and rows (infinity as "inf")."""
    return "inf" if isinstance(value, float) and math.isinf(value) else value


def _cell_name(assignment: dict) -> str:
    return "__".join(f"{key.replace('.', '-')}={_axis_label(assignment[key])}"
                     for key in sorted(assignment))


def _sweep_row(assignment: dict, cell_dir: str,
               error: FedsynthError | None = None) -> dict:
    """Result row of one sweep cell, read from the cell's report and manifest."""
    row = {"cell": _cell_name(assignment),
           "assignment": {k: _axis_label(v) for k, v in assignment.items()}}
    if error is not None:
        row.update(status="failed", error=f"{type(error).__name__}: {error}")
        return row
    report_path = os.path.join(cell_dir, REPORT_FILE)
    report = MetricsReport.from_dict(read_json(report_path))
    manifest = read_json(os.path.join(cell_dir, MANIFEST_FILE))
    row.update(status="ok", report=report_path, omega=report.omega,
               phi=report.phi, pi=report.privacy_risk,
               epsilons=manifest["epsilons"])
    return row


def cmd_sweep(config: ExperimentConfig) -> list:
    """Cartesian sweep over config.sweep axes; one row per cell.

    Cells whose report already exists are skipped (resume); failures are
    recorded and do not stop the sweep.
    """
    if not config.sweep:
        raise ValidationError("config.sweep is empty; nothing to sweep")
    axes = []
    for key in sorted(config.sweep):
        values = config.sweep[key]
        if not isinstance(values, list) or not values:
            raise ValidationError(f"sweep axis {key!r} must be a non-empty list")
        values = [math.inf if isinstance(v, str) and v.lower() == "inf" else v
                  for v in values]
        axes.append((key, values))
    assignments = [dict(zip([k for k, _ in axes], combo))
                   for combo in itertools.product(*[v for _, v in axes])]

    out_dir = config.resolved_output_dir()
    os.makedirs(os.path.join(out_dir, "sweep"), exist_ok=True)
    rows = []
    for assignment in assignments:
        # FEDSYNTH_OUTPUT_ROOT applies once, when the cell's config resolves it
        output_dir = os.path.join(config.output_dir, "sweep", _cell_name(assignment))
        cell_cfg = _cell_config(config, assignment).replace(output_dir=output_dir)
        cell_dir = cell_cfg.resolved_output_dir()
        error = None
        if not os.path.exists(os.path.join(cell_dir, REPORT_FILE)):
            try:
                run_pipeline(cell_cfg)
            except FedsynthError as exc:
                error = exc
        rows.append(_sweep_row(assignment, cell_dir, error))

    rows.sort(key=lambda r: r["cell"])
    write_json(os.path.join(out_dir, SWEEP_RESULTS_FILE), rows)
    return rows


# ---------------------------------------------------------------------------
# Report pretty-printing


def format_report(report_dict: dict) -> str:
    """Human-readable text rendering of a metrics report."""
    f = report_dict["fidelity"]
    u = report_dict["utility"]
    p = report_dict["privacy"]
    lines = ["synthetic data evaluation", "========================="]
    omega_row = "n/a" if f["omega_row"] is None else f"{f['omega_row']:.4f}"
    lines.append(f"fidelity  omega={f['omega']:.4f}  "
                 f"(col={f['omega_col']:.4f}, row={omega_row})")
    for name, score in sorted(f["per_column"].items()):
        lines.append(f"  column {name}: {score:.4f}")
    if u["phi"] is None:
        lines.append("utility   (no target column; skipped)")
    else:
        lines.append(f"utility   phi={u['phi']:.4f}  "
                     f"(majority-rate baseline {u['majority_rate']:.4f})")
        for name, acc in sorted(u["accuracies"].items()):
            lines.append(f"  {name}: {acc:.4f}")
    ci = p["singling_out"]["ci"]
    lines.append(f"privacy   risk pi={p['pi']:.4f}  protection={p['protection']:.4f}")
    lines.append(f"  singling-out {p['singling_out']['risk']:.4f} "
                 f"(95% CI {ci[0]:.4f}..{ci[1]:.4f})")
    lines.append(f"  linkability  {p['linkability']['risk']:.4f}")
    lines.append(f"  inference    {p['inference']['risk']:.4f}")
    return "\n".join(lines)


def format_sweep(rows: list) -> str:
    lines = [f"{'cell':40s} {'status':7s} {'omega':>7s} {'phi':>7s} {'pi':>7s}"]
    for row in rows:
        if row["status"] == "ok":
            phi = "n/a" if row["phi"] is None else f"{row['phi']:.4f}"
            lines.append(f"{row['cell']:40s} {row['status']:7s} "
                         f"{row['omega']:7.4f} {phi:>7s} {row['pi']:7.4f}")
        else:
            lines.append(f"{row['cell']:40s} {row['status']:7s} {row['error']}")
    return "\n".join(lines)
