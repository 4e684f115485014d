"""Experiment orchestration: config files, run commands, sweeps, persistence.

A run directory is produced in stages (prepare, train, generate, evaluate),
each a plain function usable from the CLI or from library code. RUN_FILES
names the files they write and which are released, those the manifest's
(ε, δ) must bound; the pipeline's fitted quantiles are not yet private.
Sweeps fan the stages out over config axes, one resumable cell directory each.

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

from . import diffusion as diff
from . import federation as fed
from .data import (EncodingPipeline, RawTable, TabularSchema, load_csv,
                   load_partitions, partition_iid, partition_noniid,
                   save_partitions, write_csv)
from .dp import DpConfig, RdpAccountant
from .errors import (CheckpointError, FedsynthError, ValidationError, is_number, reading,
                     require_int, require_number)
from .federation import FedConfig, FederatedState, make_client_datasets
from .metrics import DEFAULT_N_ATTACKS, DEFAULT_TEST_FRACTION, MetricsReport, evaluate_tables
from .nn import (DEFAULT_HIDDEN, DEFAULT_N_HIDDEN, DEFAULT_TIME_DIM, AdamState, DenoiserParams,
                 forward, init_denoiser, layer_buffers)
from .store import (canonical_json, json_digest, load_arrays, read_json,
                    replacing, save_arrays, write_json)

OUTPUT_ROOT_ENV = "FEDSYNTH_OUTPUT_ROOT"
CHECKPOINT_FORMAT = "fedsynth-checkpoint-v3"
DEFAULT_ATTACK_SEED = 2

PIPELINE_FILE = "pipeline.json"
PARTITIONS_FILE = "partitions.json"
PARTITION_SUMMARY_FILE = "partition_summary.json"
CHECKPOINT_FILE = "checkpoint.npz"
AUDIT_FILE = "audit.jsonl"
MANIFEST_FILE = "manifest.json"
SYNTHETIC_FILE = "synthetic.csv"
REPORT_FILE = "report.json"
SWEEP_RESULTS_FILE = "sweep_results.json"

# file name -> (the command that writes it into a run directory, released)
RUN_FILES = {
    PIPELINE_FILE: ("prepare", True),
    PARTITIONS_FILE: ("prepare", False),
    PARTITION_SUMMARY_FILE: ("prepare", False),
    CHECKPOINT_FILE: ("train", True),  # once finished; a staged one is operator-only
    AUDIT_FILE: ("train", False),
    MANIFEST_FILE: ("train", True),
    SYNTHETIC_FILE: ("generate", True),
    REPORT_FILE: ("sweep", False),  # into each cell's directory
    SWEEP_RESULTS_FILE: ("sweep", False),
}


@dataclass(frozen=True)
class Seeds:
    """The three independent randomness roots of a run."""

    model: int = 0
    data: int = 1
    attack: int = DEFAULT_ATTACK_SEED

    def __post_init__(self):
        for name in ("model", "data", "attack"):
            require_int(getattr(self, name), f"seeds.{name}", 0)


@dataclass(frozen=True)
class ModelConfig:
    hidden_width: int = DEFAULT_HIDDEN
    n_hidden: int = DEFAULT_N_HIDDEN
    time_dim: int = DEFAULT_TIME_DIM

    def __post_init__(self):
        for name in ("hidden_width", "n_hidden"):
            require_int(getattr(self, name), f"model.{name}", 1)
        # sine/cosine pairs: 0 would train a denoiser with no time input
        if not isinstance(self.time_dim, int) or self.time_dim < 2 or self.time_dim % 2:
            raise ValidationError(
                f"model.time_dim must be a positive even integer, got {self.time_dim!r}")


@dataclass(frozen=True)
class DiffusionConfig:
    timesteps: int = diff.DEFAULT_TIMESTEPS

    def __post_init__(self):
        require_int(self.timesteps, "diffusion.timesteps", 1, diff.MAX_TIMESTEPS)

    def schedule(self) -> diff.NoiseSchedule:
        return diff.linear_schedule(self.timesteps)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = ""
    schema: str = ""
    output_dir: str = "runs/run"
    partition: str = "noniid"
    n_rows: int = 1000
    n_attacks: int = DEFAULT_N_ATTACKS
    test_fraction: float = DEFAULT_TEST_FRACTION
    checkpoint_every: int = 0
    sweep: dict = field(default_factory=dict)
    seeds: Seeds = field(default_factory=Seeds)
    model: ModelConfig = field(default_factory=ModelConfig)
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    federation: FedConfig = field(default_factory=FedConfig)
    dp: DpConfig = field(default_factory=DpConfig)

    def __post_init__(self):
        for name in ("dataset", "schema", "output_dir"):
            if not isinstance(getattr(self, name), str):
                raise ValidationError(f"{name} must be a path string, got {getattr(self, name)!r}")
        if self.partition not in ("noniid", "iid"):
            raise ValidationError("partition must be 'noniid' or 'iid'")
        require_int(self.n_rows, "n_rows", 1)
        require_int(self.n_attacks, "n_attacks", 1)
        require_int(self.checkpoint_every, "checkpoint_every", 0)
        require_number(self.test_fraction, "test_fraction")
        if not 0 < self.test_fraction < 1:
            raise ValidationError(
                f"test_fraction must be a number in (0, 1), got {self.test_fraction!r}")
        if not isinstance(self.sweep, dict):
            raise ValidationError(
                f"sweep must map axis names to value lists, got {self.sweep!r}")
        try:  # the digest hashes the sweep, so it must be writable as JSON
            canonical_json(self.to_dict()["sweep"])
        except ValueError:
            raise ValidationError(
                f"sweep values must be finite or +inf, got {self.sweep!r}") from None

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """The config's JSON form: what config files hold, the digest hashes
        and the sweep names its cells by."""
        return _json_form(dataclasses.asdict(self))

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(_object(d, "config"))
        fields = dataclasses.fields(cls)
        # a sub-config is a field whose default is a dataclass
        subs = {f.name: dict(_object(d.pop(f.name, {}), f"config {f.name!r}"))
                for f in fields if dataclasses.is_dataclass(f.default_factory)}
        epsilon = subs["dp"].get("epsilon")  # any other string fails as a non-number
        if epsilon is None or isinstance(epsilon, str) and epsilon.lower() in ("inf", "infinity"):
            subs["dp"]["epsilon"] = math.inf
        unknown = set(d) - {f.name for f in fields}
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        # An unknown or mistyped key inside a sub-config surfaces as TypeError.
        with reading("config"):
            return cls(**d, **{f.name: f.default_factory(**subs[f.name])
                               for f in fields if f.name in subs})

    @classmethod
    def from_file(cls, path, overrides: list | None = None) -> "ExperimentConfig":
        what = f"config {path!r}"
        with reading(what):
            raw = _object(read_json(path), what)
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

    def replace(self, **settings) -> "ExperimentConfig":
        """Return a copy with ``settings`` applied, as ``--set`` applies them.

        Keys are field names or dotted paths into sub-configs, e.g.
        ``replace(n_rows=10, **{"federation.rounds": 10})``; values are
        JSON-like, and the copy is validated as a config file is.
        """
        raw = self.to_dict()
        for key, value in settings.items():
            raw = _set_dotted(raw, key, value)
        return ExperimentConfig.from_dict(raw)


def _json_form(value):
    """``value`` with every +inf float spelled "inf", as JSON cannot spell it."""
    if isinstance(value, dict):
        return {key: _json_form(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_form(item) for item in value]
    return "inf" if isinstance(value, float) and value == math.inf else value


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be a JSON object, got {value!r}")
    return value


def _set_dotted(raw: dict, key: str, value) -> dict:
    """Copy of the config dict ``raw`` with ``value`` at the dotted path ``key``.

    Only the dicts along the path are copied; missing ones are created.
    """
    *parents, leaf = key.split(".")
    out = dict(_object(raw, "config"))
    node = out
    for part in parents:
        node[part] = dict(_object(node.get(part, {}), f"config {part!r}"))
        node = node[part]
    node[leaf] = value
    return out


def _apply_override(raw: dict, item: str) -> dict:
    if "=" not in item:
        raise ValidationError(f"override {item!r} must look like key=value")
    key, text = (part.strip() for part in item.split("=", 1))
    try:
        value = json.loads(text)
    except ValueError:
        value = text
    return _set_dotted(raw, key, value)


def desk_preset(**settings) -> ExperimentConfig:
    """Laptop-friendly profile (small net, short federated schedule) with ``settings``."""
    return ExperimentConfig(
        model=ModelConfig(hidden_width=128),
        federation=FedConfig(n_clients=3, rounds=50, local_steps=20),
    ).replace(**settings)


# ---------------------------------------------------------------------------
# Checkpointing


def _finished(state: FederatedState, config: ExperimentConfig) -> bool:
    """True once the run can train no further: every round done, or the budget stopped it."""
    return state.stopped_early or state.round >= config.federation.rounds


def save_checkpoint(path, state: FederatedState, config: ExperimentConfig,
                    pipeline_digest: str, partitions_digest: str) -> None:
    """Write ``state`` of a run of ``config`` to ``path``.

    An unfinished run's checkpoint holds everything ``--resume`` needs: the
    global model, every client's optimizer moments (and the server's, under
    FedAdam/FedYogi), each client's privacy ledger (``RdpAccountant.ledger``,
    None without an accountant), and ``partitions_digest``, which names the
    shards the ledgers account for. A finished run's checkpoint keeps only
    the model and the ledgers.
    """
    finished = _finished(state, config)
    arrays = {"global_flat": state.global_flat}
    meta = {
        "format": CHECKPOINT_FORMAT,
        "manifest": state.manifest,
        "round": state.round,
        "stopped_early": state.stopped_early,
        "clients": [],
        "config_digest": config.digest,
        "pipeline_digest": pipeline_digest,
    }
    if not finished:
        meta["partitions_digest"] = partitions_digest
    if not finished and state.server is not None:
        arrays.update(server_m=state.server.m, server_v=state.server.v)
        meta["server_updates"] = state.server.t
    for c in state.clients:
        entry = {
            "client_id": c.client_id,
            "sigma": c.sigma,
            "delta": c.delta,
            "n_samples": c.n_samples,
            "ledger": None if c.accountant is None else c.accountant.ledger(),
        }
        if not finished:
            arrays[f"adam_m_{c.client_id}"] = c.adam.m
            arrays[f"adam_v_{c.client_id}"] = c.adam.v
            entry["adam_t"] = c.adam.t
        meta["clients"].append(entry)
    save_arrays(path, arrays, meta)


def _read_checkpoint(path, names=None) -> tuple:
    """``load_arrays`` of a training checkpoint, optionally of some arrays only."""
    arrays, meta = load_arrays(path, names)
    fmt = meta.get("format") if isinstance(meta, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path!r} has checkpoint format {fmt!r}, "
                              f"not {CHECKPOINT_FORMAT!r}")
    return arrays, meta


def _check_client(cm: dict) -> None:
    """Raise ValueError unless checkpoint client entry ``cm`` holds an
    n_samples, sigma and delta that training can use. A client with a
    ledger is accounted for, so it needs a sigma and a delta."""
    n, sigma, delta = cm["n_samples"], cm["sigma"], cm["delta"]
    optional = cm["ledger"] is None
    for name, ok, rule in [
            ("n_samples", not isinstance(n, bool) and isinstance(n, int) and n >= 1,
             "an integer >= 1"),
            ("sigma", sigma is None and optional or is_number(sigma) and 0 <= sigma < math.inf,
             "a finite number >= 0"),
            ("delta", delta is None and optional or is_number(delta) and 0 < delta < 1,
             "a number in (0, 1)")]:
        if not ok:
            raise ValueError(f"client {cm['client_id']}'s {name} is {cm[name]!r}, not {rule}")


def _read_state(path) -> tuple:
    """The training state a checkpoint holds, and its meta.

    A finished run's checkpoint has no optimizer moments: its state's
    ``server`` and every client's ``adam`` are None, so it can report ε but
    not train. ``server`` is None under FedAvg and FedProx too.
    """
    arrays, meta = _read_checkpoint(path)
    with reading(f"checkpoint {path!r}", CheckpointError):
        clients = []
        for cm in meta["clients"]:
            cid = cm["client_id"]
            _check_client(cm)
            adam = accountant = None
            if f"adam_m_{cid}" in arrays:
                adam = AdamState(arrays[f"adam_m_{cid}"], arrays[f"adam_v_{cid}"],
                                 t=int(cm["adam_t"]))
            with reading(f"client {cid}'s privacy ledger in {path!r}", CheckpointError):
                if cm["ledger"] is not None:
                    accountant = RdpAccountant.from_ledger(cm["ledger"])
            clients.append(fed.ClientState(cid, adam, accountant, cm["sigma"],
                                           cm["delta"], cm["n_samples"]))
        server = None
        if "server_m" in arrays:
            server = AdamState(arrays["server_m"], arrays["server_v"],
                               t=int(meta["server_updates"]))
        state = FederatedState(arrays["global_flat"], meta["manifest"], clients, server,
                               round=int(meta["round"]),
                               stopped_early=bool(meta["stopped_early"]))
    return state, meta


# ---------------------------------------------------------------------------
# Stage commands


def _load_inputs(config: ExperimentConfig, schema: TabularSchema | None = None) -> RawTable:
    """The config's dataset, read with ``schema``, else with its schema file."""
    if not config.dataset or not (schema or config.schema):
        raise ValidationError("config must set dataset and schema paths")
    return load_csv(config.dataset, schema or TabularSchema.load(config.schema))


def cmd_prepare(config: ExperimentConfig) -> dict:
    """Fit the encoding pipeline and the client partition; write both."""
    table = _load_inputs(config)
    out = config.resolved_output_dir()
    os.makedirs(out, exist_ok=True)

    pipeline = EncodingPipeline.fit(table, embed_seed=config.seeds.data)
    pipeline.save(os.path.join(out, PIPELINE_FILE))

    n_clients = config.federation.n_clients
    if config.partition == "iid" or n_clients == 1:
        partitions = partition_iid(table, n_clients, config.seeds.data)
    else:
        if table.schema.partition_column is None:
            raise ValidationError(
                "non-IID partitioning needs schema.partition_by")
        partitions = partition_noniid(table, table.schema.partition_column,
                                      n_clients, config.seeds.data)
    save_partitions(os.path.join(out, PARTITIONS_FILE), partitions)
    summary = {
        "n_rows": table.n_rows,
        "partition": config.partition,
        "counts": {str(cid): rows.size for cid, rows in enumerate(partitions)},
        "config_digest": config.digest,
    }
    write_json(os.path.join(out, PARTITION_SUMMARY_FILE), summary)
    return summary


def _require(out: str, name: str, path: str | None = None) -> str:
    """``path`` (by default ``name`` in ``out``) if it exists, else name the command writing it."""
    path = path or os.path.join(out, name)
    if not os.path.exists(path):
        raise ValidationError(f"missing {path!r}; run {RUN_FILES[name][0]} first")
    return path


def _keep_audit_through(path: str, last_round: int) -> None:
    """Drop the audit lines of rounds after ``last_round``.

    Lines are appended as each round completes, so after a crash the file
    can hold rounds the resumed checkpoint does not; those rounds rerun. A
    last line without its newline is a torn append, of a round the
    checkpoint cannot hold (it is saved after the append), so it goes too.
    """
    kept = []
    if last_round > 0 and os.path.exists(path):
        with reading(f"audit log {path!r}", CheckpointError), \
                open(path, encoding="utf-8") as fh:
            kept = [line for line in fh
                    if line.endswith("\n") and json.loads(line)["round"] <= last_round]
    with replacing(path, "w", encoding="utf-8") as fh:
        fh.writelines(kept)


def _manifest(config: ExperimentConfig, pipeline_digest: str, state: FederatedState,
              started: float) -> dict:
    return {
        "config_digest": config.digest,
        "pipeline_digest": pipeline_digest,
        "rounds_completed": state.round,
        "stopped_early": state.stopped_early,
        "epsilons": {str(c.client_id): c.current_epsilon() for c in state.clients
                     if c.accountant is not None},
        "wall_time_s": round(time.time() - started, 3),
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__},
    }


def _finished_manifest(config: ExperimentConfig, pipeline_digest: str,
                       state: FederatedState) -> dict:
    """The manifest of a finished run, which ``--resume`` leaves as it is.

    A crash between the final checkpoint and the manifest leaves no manifest,
    or a staged session's; then it is written from the checkpoint's ledgers.
    """
    started = time.time()
    path = os.path.join(config.resolved_output_dir(), MANIFEST_FILE)
    if os.path.exists(path):
        what = f"manifest {path!r}"
        with reading(what):
            manifest = _object(read_json(path), what)
        written = [manifest.get(k) for k in ("config_digest", "rounds_completed",
                                             "stopped_early")]
        if written == [config.digest, state.round, state.stopped_early]:
            return manifest
    manifest = _manifest(config, pipeline_digest, state, started)
    write_json(path, manifest)
    return manifest


def cmd_train(config: ExperimentConfig, resume: bool = False,
              stop_after_round: int | None = None) -> dict:
    """Run federated training; write checkpoint, audit log, and manifest.

    A run is finished once all ``federation.rounds`` are done or the privacy
    budget stopped it. Its final checkpoint keeps only the model and the
    ledgers, and ``resume`` of a finished run trains nothing and leaves the
    checkpoint, audit log and manifest as they are. ``resume`` reads the
    checkpoint once.
    """
    out = config.resolved_output_dir()
    pipeline = EncodingPipeline.load(_require(out, PIPELINE_FILE))
    checkpoint, audit = os.path.join(out, CHECKPOINT_FILE), os.path.join(out, AUDIT_FILE)
    state = None
    if resume:
        # _read_state keeps no name for the checkpoint's arrays, so the
        # state's first global vector is freed once round 1 replaces it
        state, meta = _read_state(_require(out, CHECKPOINT_FILE))
        if meta.get("config_digest") != config.digest:
            raise CheckpointError(
                "checkpoint was produced by a different config; refusing to resume")
        if meta.get("pipeline_digest") != pipeline.digest:
            raise CheckpointError("checkpoint does not match the fitted pipeline")
        if _finished(state, config):
            return _finished_manifest(config, pipeline.digest, state)
        if (state.server is None) == (config.federation.strategy in fed.SERVER_OPTIMIZERS):
            raise CheckpointError("checkpoint's server moments do not match federation.strategy")
        if config.dp.mechanism_active and any(c.sigma is None for c in state.clients):
            raise CheckpointError(f"checkpoint {checkpoint!r} holds a client with no sigma, "
                                  "but dp clips and noises every step")
    done = state.round if resume else 0
    if stop_after_round is not None and stop_after_round <= done:
        raise ValidationError(f"stop_after_round {stop_after_round} is not past round {done}")
    table = _load_inputs(config, pipeline.schema)  # the schema prepare fitted
    partitions = load_partitions(_require(out, PARTITIONS_FILE), table.n_rows,
                                 config.federation.n_clients)
    partitions_digest = json_digest([rows.tolist() for rows in partitions])
    if resume and meta.get("partitions_digest") != partitions_digest:
        raise CheckpointError(f"checkpoint's shards differ from {PARTITIONS_FILE}'s")
    datasets = make_client_datasets(pipeline, table, partitions)
    schedule = config.diffusion.schedule()
    _keep_audit_through(audit, done)

    def round_cb(st, lines):
        with open(audit, "a", encoding="utf-8") as fh:
            fh.writelines(canonical_json(line) + "\n" for line in lines)
        every = config.checkpoint_every
        # the save after fed.train writes the session's last round
        last = st.round in (config.federation.rounds, stop_after_round)
        if every > 0 and st.round % every == 0 and not last:
            save_checkpoint(checkpoint, st, config, pipeline.digest, partitions_digest)

    started = time.time()
    if state is None:
        # The initial parameters have no name here, so that they are freed
        # once init_state holds a copy.
        state = fed.init_state(init_denoiser(
            pipeline.encoded_width, hidden_width=config.model.hidden_width,
            n_hidden=config.model.n_hidden, time_dim=config.model.time_dim,
            embeddings=pipeline.initial_embeddings(),
            rng=np.random.default_rng([config.seeds.model])),
            datasets, config.federation, config.dp)
    fed.train(state, datasets, schedule, config.federation, config.dp,
              config.seeds.model, stop_after_round=stop_after_round,
              round_callback=round_cb)
    save_checkpoint(checkpoint, state, config, pipeline.digest, partitions_digest)
    manifest = _manifest(config, pipeline.digest, state, started)
    write_json(os.path.join(out, MANIFEST_FILE), manifest)
    return manifest


def cmd_generate(config: ExperimentConfig, checkpoint_path: str | None = None,
                 out_path: str | None = None) -> str:
    """Sample ``config.n_rows`` synthetic rows from a checkpoint, seeded by
    ``config.seeds.model``, and decode them to CSV."""
    out = config.resolved_output_dir()
    pipeline = EncodingPipeline.load(_require(out, PIPELINE_FILE))
    checkpoint_path = _require(out, CHECKPOINT_FILE, checkpoint_path)
    # sampling reads only the global model: no client state, no accountant
    arrays, meta = _read_checkpoint(checkpoint_path, names=("global_flat",))
    if meta.get("pipeline_digest") != pipeline.digest:
        raise CheckpointError("checkpoint does not match the fitted pipeline")
    with reading(f"checkpoint {checkpoint_path!r}", CheckpointError):
        params = DenoiserParams.from_flat(arrays["global_flat"], meta["manifest"])
    if params.d_enc != pipeline.encoded_width:
        raise CheckpointError("checkpoint width does not match the pipeline schema")

    rng = np.random.default_rng([config.seeds.model, 0])  # block 0; blocks would be [seed, b]
    # The denoiser runs on a float32 copy, and the chain on a respaced
    # schedule of diff.SAMPLE_STEPS steps (sampling is post-processing, so
    # neither touches ε); the chain's update, its noise and decode stay
    # float64, and decode reads the checkpoint's float64 tables. The model
    # was trained on the original steps, so respaced step i asks it about
    # step tau[i - 1].
    sampler = params.astype(np.float32)
    buffers = layer_buffers(sampler, config.n_rows)
    schedule, tau = diff.respace(config.diffusion.schedule(), diff.SAMPLE_STEPS)
    encoded = diff.generate(lambda x, i: forward(sampler, x, int(tau[i - 1]), buffers),
                            config.n_rows, params.d_enc, schedule, rng)
    table = pipeline.decode(encoded, embeddings=params.embeddings)
    out_path = out_path or os.path.join(out, SYNTHETIC_FILE)
    write_csv(out_path, table)
    return out_path


def cmd_evaluate(real_csv: str, syn_csv: str, schema_path: str,
                 seed: int = DEFAULT_ATTACK_SEED, n_attacks: int = DEFAULT_N_ATTACKS,
                 test_fraction: float = DEFAULT_TEST_FRACTION,
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
    return cmd_evaluate(config.dataset, syn_path, config.schema,
                        seed=config.seeds.attack, n_attacks=config.n_attacks,
                        test_fraction=config.test_fraction,
                        out_path=os.path.join(config.resolved_output_dir(), REPORT_FILE),
                        metadata={"config_digest": config.digest})


# ---------------------------------------------------------------------------
# Sweeps


_AXIS_ALIASES = {
    "epsilon": "dp.epsilon",
    "local_steps": "federation.local_steps",
    "n_clients": "federation.n_clients",
    "strategy": "federation.strategy",
    "rounds": "federation.rounds",
}


def _cell_config(config: ExperimentConfig, assignment: dict,
                 output_dir: str) -> ExperimentConfig:
    """The config of the sweep cell that sets each axis of ``assignment``."""
    dotted = {}
    for key, value in assignment.items():
        if key == "seed":  # the data and attack seeds are derived from it
            require_int(value, "sweep axis 'seed' value", 0)
            dotted.update({"seeds.model": value, "seeds.data": value + 1,
                           "seeds.attack": value + 2})
        elif key.split(".")[0] in ("output_dir", "sweep"):
            raise ValidationError(f"sweep axis {key!r} cannot be swept: each cell sets it")
        else:
            dotted[_AXIS_ALIASES.get(key, key)] = value
    return config.replace(sweep={}, output_dir=output_dir, **dotted)


def _cell_results(cell_dir: str, digest: str) -> dict | None:
    """The result fields of a sweep cell finished under config ``digest``,
    read from its report and manifest; None when it has no report, or one
    written under another config."""
    report_path = os.path.join(cell_dir, REPORT_FILE)
    if not os.path.exists(report_path):
        return None
    with reading(f"report {report_path!r}"):
        report = MetricsReport.from_dict(read_json(report_path))
        if not (isinstance(report.metadata, dict)
                and report.metadata.get("config_digest") == digest):
            return None
        omega, phi, pi = report.omega, report.phi, report.privacy_risk
    manifest_path = os.path.join(cell_dir, MANIFEST_FILE)
    with reading(f"manifest {manifest_path!r}"):
        epsilons = read_json(manifest_path)["epsilons"]
    return {"status": "ok", "report": report_path, "omega": omega, "phi": phi, "pi": pi,
            "epsilons": epsilons}


def cmd_sweep(config: ExperimentConfig) -> list:
    """Cartesian sweep over config.sweep axes; one row per cell.

    A cell is named by its axis values as the config's JSON form writes
    them. A cell whose report was written under its config is not run again
    (resume); failures are recorded and do not stop the sweep.
    """
    axes = config.to_dict()["sweep"]
    if not axes:
        raise ValidationError("config.sweep is empty; nothing to sweep")
    keys = sorted(axes)
    for key in keys:
        if not isinstance(axes[key], list) or not axes[key]:
            raise ValidationError(f"sweep axis {key!r} must be a non-empty list")

    # every cell's config is checked before any cell runs;
    # FEDSYNTH_OUTPUT_ROOT applies once, when the cell's config resolves it
    cells = []
    for values in itertools.product(*(axes[key] for key in keys)):
        assignment = dict(zip(keys, values))
        name = "__".join(f"{key.replace('.', '-')}={value}" for key, value in assignment.items())
        cells.append((name, assignment, _cell_config(
            config, assignment, os.path.join(config.output_dir, "sweep", name))))
    out_dir = config.resolved_output_dir()
    os.makedirs(os.path.join(out_dir, "sweep"), exist_ok=True)
    rows = []
    for name, assignment, cell_cfg in cells:
        cell_dir = cell_cfg.resolved_output_dir()
        row = {"cell": name, "assignment": assignment}
        try:
            results = _cell_results(cell_dir, cell_cfg.digest)
            if results is None:
                run_pipeline(cell_cfg)
                results = _cell_results(cell_dir, cell_cfg.digest)
            row.update(results)
        except FedsynthError as exc:
            row.update(status="failed", error=f"{type(exc).__name__}: {exc}")
        rows.append(row)

    rows.sort(key=lambda r: r["cell"])
    write_json(os.path.join(out_dir, SWEEP_RESULTS_FILE), rows)
    return rows


# ---------------------------------------------------------------------------
# Report pretty-printing


def format_report(report_dict: dict) -> str:
    """Human-readable text of a metrics report; a non-object score table raises TypeError."""
    f, u, p = (report_dict[key] for key in ("fidelity", "utility", "privacy"))
    if not (isinstance(f["per_column"], dict) and isinstance(u["accuracies"], dict)):
        raise TypeError("fidelity.per_column and utility.accuracies must be JSON objects")
    lines = ["synthetic data evaluation", "========================="]
    omega_row = "n/a" if f["omega_row"] is None else f"{f['omega_row']:.4f}"
    lines.append(f"fidelity  omega={f['omega']:.4f}  "
                 f"(col={f['omega_col']:.4f}, row={omega_row})")
    for name, score in sorted(f["per_column"].items()):
        lines.append(f"  column {name}: {score:.4f}")
    if u["phi"] is None:
        why = "synthetic training rows have one class" if u["skipped"] else "no target column"
        lines.append(f"utility   ({why}; skipped)")
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
