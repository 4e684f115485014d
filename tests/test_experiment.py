import json
import math
import os
import shutil
import struct
import subprocess
import sys
import weakref
import zipfile

import numpy as np
import pytest

from fedsynth import cli, diffusion, experiment, federation
from fedsynth.data import EncodingPipeline, load_csv, write_csv
from fedsynth.dp import RdpAccountant
from fedsynth.errors import CheckpointError, DivergenceError, ValidationError
from fedsynth.experiment import (OUTPUT_ROOT_ENV, ExperimentConfig, Seeds,
                                 cmd_evaluate, cmd_generate, cmd_prepare,
                                 cmd_sweep, cmd_train, desk_preset,
                                 run_pipeline)
from fedsynth.fixtures import gaussian_mixture_table, independent_table
from fedsynth.nn import DenoiserParams, forward, init_denoiser
from fedsynth.store import json_digest, load_arrays, read_json, save_arrays, write_json

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture()
def workspace(tmp_path):
    table = gaussian_mixture_table(240, seed=7)
    real = tmp_path / "real.csv"
    schema = tmp_path / "schema.json"
    write_csv(real, table)
    table.schema.save(schema)
    return {"tmp": tmp_path, "real": str(real), "schema": str(schema),
            "table": table}


def _fast_config(ws, out="run", **extra):
    cfg = desk_preset(dataset=ws["real"], schema=ws["schema"],
                      output_dir=str(ws["tmp"] / out))
    base = {"federation.rounds": 2, "federation.local_steps": 3,
            "federation.n_clients": 2, "federation.batch_size": 8,
            "model.hidden_width": 16, "model.n_hidden": 2,
            "model.time_dim": 8, "diffusion.timesteps": 10,
            "n_rows": 40, "n_attacks": 15}
    base.update(extra)
    return cfg.replace(**base)


DP_ON = {"dp.epsilon": 50.0, "dp.noise_multiplier": 1.0}


# ---------------------------------------------------------------------------
# Config plumbing


def test_config_dict_roundtrip_with_infinity(workspace):
    cfg = _fast_config(workspace)
    d = cfg.to_dict()
    assert d["dp"]["epsilon"] == "inf"
    back = ExperimentConfig.from_dict(d)
    assert back == cfg
    assert back.digest == cfg.digest


def test_config_finite_epsilon_roundtrip(workspace):
    cfg = _fast_config(workspace, **{"dp.epsilon": 2.5})
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back.dp.epsilon == 2.5
    assert math.isinf(_fast_config(workspace).dp.epsilon)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValidationError, match="unknown"):
        ExperimentConfig.from_dict({"datsaet": "x.csv"})
    with pytest.raises(ValidationError, match="literal_weighting"):
        ExperimentConfig.from_dict({"federation": {"literal_weighting": True}})
    with pytest.raises(ValidationError, match="sweep_workers"):
        ExperimentConfig.from_dict({"sweep_workers": 2})


def test_config_from_file_with_overrides(workspace, tmp_path):
    cfg = _fast_config(workspace)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = ExperimentConfig.from_file(
        str(path), ["federation.rounds=9", 'partition="iid"', "dp.epsilon=0.7"])
    assert loaded.federation.rounds == 9
    assert loaded.partition == "iid"
    assert loaded.dp.epsilon == 0.7


def test_config_override_requires_equals(workspace, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_fast_config(workspace).to_dict()))
    with pytest.raises(ValidationError):
        ExperimentConfig.from_file(str(path), ["federation.rounds:9"])


def test_config_digest_insensitive_to_key_order(workspace, tmp_path):
    cfg = _fast_config(workspace)
    d = cfg.to_dict()
    scrambled = dict(reversed(list(d.items())))
    assert list(scrambled) != list(d)
    assert ExperimentConfig.from_dict(scrambled).digest == cfg.digest


README_RUN_JSON = {
    "dataset": "data.csv", "schema": "schema.json", "output_dir": "runs/demo",
    "partition": "noniid", "n_rows": 5000,
    "federation": {"n_clients": 3, "rounds": 50, "local_steps": 20},
    "dp": {"epsilon": 1.0},
    "sweep": {"epsilon": ["inf", 5.0, 1.0, 0.2], "seed": [0, 1, 2]}}

# Digests written by earlier releases. A checkpoint resumes, and a sweep cell
# counts as done, only under an equal digest, so none of these may move.
GOLDEN_DIGESTS = [
    (lambda: ExperimentConfig(),
     "8c3648b40d8d47a32ed4f92732a3ecb1c186a7501d15172ce9196911a8abc8a3"),
    (lambda: desk_preset(),
     "c7269e337c1b7609b5dc3f4d8810958787314437353e003864cb37d9518ae348"),
    (lambda: desk_preset(dataset="d.csv", n_rows=300, n_attacks=100),
     "5b5685e378b198a49db9d11bb58b9c1658e40a8f86e65b440be2b8885a74becf"),
    (lambda: ExperimentConfig().replace(n_rows=7, output_dir="runs/x", **{
        "federation.rounds": 10, "dp.epsilon": 2.0, "seeds.model": 5}),
     "cb213e51516bf4fe37de0438adc1ce96f69c5970a1869acaa05c297dbfd76e53"),
    (lambda: ExperimentConfig(sweep={"epsilon": ["inf", 1.0]}),
     "283dfc547b5921fbf6149549ef83cab4996da86c4d399c0427b6813fe4291b14"),
    (lambda: ExperimentConfig(sweep={"epsilon": ["INF", 1.0]}),
     "3746a6a1160ba702d6b61548169b8da28dbe1024e25b359d5187ffbf73439589"),
    (lambda: ExperimentConfig(sweep={"epsilon": [math.inf, 1.0]}),
     "283dfc547b5921fbf6149549ef83cab4996da86c4d399c0427b6813fe4291b14"),
    (lambda: experiment._cell_config(
        desk_preset(sweep={"epsilon": ["inf", 5.0], "seed": [0, 1]}),
        {"epsilon": math.inf, "seed": 1}, "runs/run/sweep/cell"),
     "d23ebc502748aa9c91fd4a684f8aa200289e8a870f174f62bc6ff52ff617e275"),
    (lambda: ExperimentConfig.from_dict(README_RUN_JSON),
     "53d8c8994597dcf38d842d8ebdc2265f896cb756ed2af9d3dbaa4fc33d8e9fa7"),
]


@pytest.mark.parametrize("make, digest", GOLDEN_DIGESTS)
def test_config_digest_is_stable_and_survives_an_empty_replace(make, digest):
    cfg = make()
    assert cfg.digest == digest
    assert cfg.replace().digest == digest


def test_seeds_validation():
    with pytest.raises(ValidationError):
        Seeds(model=-1)


def test_output_root_env_applies_to_relative_paths(workspace, monkeypatch):
    cfg = _fast_config(workspace).replace(output_dir="rel/run")
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(workspace["tmp"] / "root"))
    assert cfg.resolved_output_dir() == str(workspace["tmp"] / "root/rel/run")
    monkeypatch.delenv(OUTPUT_ROOT_ENV)
    assert cfg.resolved_output_dir() == "rel/run"
    # absolute paths are left alone
    monkeypatch.setenv(OUTPUT_ROOT_ENV, "/elsewhere")
    abs_cfg = _fast_config(workspace)
    assert abs_cfg.resolved_output_dir() == abs_cfg.output_dir


# ---------------------------------------------------------------------------
# Stage commands


def test_prepare_writes_artifacts_and_is_byte_stable(workspace):
    cfg = _fast_config(workspace)
    out1 = cmd_prepare(cfg)
    run_dir = cfg.resolved_output_dir()
    files = ["pipeline.json", "partitions.json", "partition_summary.json"]
    blobs = {f: open(os.path.join(run_dir, f), "rb").read() for f in files}
    out2 = cmd_prepare(cfg)
    for f in files:
        assert open(os.path.join(run_dir, f), "rb").read() == blobs[f]
    assert out1 == out2
    assert out1["n_rows"] == 240
    assert sum(out1["counts"].values()) == 240


def test_prepare_iid_partition(workspace):
    cfg = _fast_config(workspace, out="iid_run", partition="iid")
    summary = cmd_prepare(cfg)
    assert summary["partition"] == "iid"
    sizes = sorted(summary["counts"].values())
    assert max(sizes) - min(sizes) <= 1


def test_train_requires_prepare(workspace):
    cfg = _fast_config(workspace, out="not_prepared")
    with pytest.raises(ValidationError):
        cmd_train(cfg)


def test_train_writes_checkpoint_audit_manifest(workspace):
    cfg = _fast_config(workspace)
    cmd_prepare(cfg)
    manifest = cmd_train(cfg)
    run_dir = cfg.resolved_output_dir()
    assert manifest["rounds_completed"] == 2
    assert os.path.exists(os.path.join(run_dir, "checkpoint.npz"))
    lines = open(os.path.join(run_dir, "audit.jsonl")).read().splitlines()
    assert len(lines) == 2  # one client per round
    recs = [json.loads(l) for l in lines]
    assert recs[0]["round"] == 1 and recs[1]["round"] == 2
    on_disk = read_json(os.path.join(run_dir, "manifest.json"))
    assert on_disk["config_digest"] == cfg.digest


STRATEGIES = ["fedavg", "fedprox", "fedadam", "fedyogi"]


def test_resume_is_bit_exact(workspace, monkeypatch):
    """Without DP under FedAvg, and with DP under each strategy (both clients
    in every round, so the server optimizers' moments carry across the stop)."""
    cases = [{}] + [dict(DP_ON, **{"federation.strategy": strategy,
                                   "federation.clients_per_round": 2,
                                   "federation.server_lr": 1e-3})
                    for strategy in STRATEGIES]
    for case, extra in enumerate(cases):
        # same config both times (relative output dir), rooted in two different
        # places via the output-root env var, so checkpoint metadata agrees too
        cfg = _fast_config(workspace, **{"federation.rounds": 4}, **extra)
        cfg = cfg.replace(output_dir="run")
        roots = {k: str(workspace["tmp"] / f"case{case}" / k) for k in ("straight", "staged")}

        monkeypatch.setenv(OUTPUT_ROOT_ENV, roots["straight"])
        cmd_prepare(cfg)
        cmd_train(cfg)

        monkeypatch.setenv(OUTPUT_ROOT_ENV, roots["staged"])
        cmd_prepare(cfg)
        cmd_train(cfg, stop_after_round=2)
        cmd_train(cfg, resume=True)

        for fname in ("checkpoint.npz", "audit.jsonl", "manifest.json"):
            blob_a = open(os.path.join(roots["straight"], "run", fname), "rb").read()
            blob_b = open(os.path.join(roots["staged"], "run", fname), "rb").read()
            if fname == "manifest.json":  # all but the wall time
                blob_a, blob_b = ({k: v for k, v in json.loads(b).items()
                                   if k != "wall_time_s"} for b in (blob_a, blob_b))
            assert blob_a == blob_b, (extra, fname)


def test_resume_after_crash_keeps_audit_of_checkpointed_rounds(workspace,
                                                              monkeypatch):
    """A crash after a periodic checkpoint, then --resume, leaves the same
    audit.jsonl as a run that was never interrupted."""
    extra = {"checkpoint_every": 2, "federation.rounds": 6,
             "federation.local_steps": 2}
    straight = _fast_config(workspace, out="straight", **extra)
    cmd_prepare(straight)
    cmd_train(straight)

    crashed = _fast_config(workspace, out="crashed", **extra)
    cmd_prepare(crashed)
    run_round = federation.run_round

    def crash_before_round_4(state, *args):
        if state.round == 3:
            raise DivergenceError("injected crash")
        return run_round(state, *args)

    monkeypatch.setattr(federation, "run_round", crash_before_round_4)
    with pytest.raises(DivergenceError):
        cmd_train(crashed)
    monkeypatch.setattr(federation, "run_round", run_round)
    cmd_train(crashed, resume=True)

    audits = [open(os.path.join(cfg.resolved_output_dir(), "audit.jsonl"),
                   "rb").read() for cfg in (straight, crashed)]
    assert audits[0] == audits[1]
    rounds = [json.loads(line)["round"] for line in audits[1].splitlines()]
    assert rounds == [1, 2, 3, 4, 5, 6]


def test_resume_rejects_config_change(workspace):
    cfg = _fast_config(workspace, out="resume_guard")
    cmd_prepare(cfg)
    cmd_train(cfg)
    changed = cfg.replace(**{"federation.local_steps": 5})
    with pytest.raises(CheckpointError):
        cmd_train(changed, resume=True)


def test_periodic_checkpointing(workspace):
    cfg = _fast_config(workspace, out="periodic", checkpoint_every=1,
                       **{"federation.rounds": 3})
    cmd_prepare(cfg)
    cmd_train(cfg, stop_after_round=1)
    ck = os.path.join(cfg.resolved_output_dir(), "checkpoint.npz")
    assert os.path.exists(ck)
    cmd_train(cfg, resume=True)
    manifest = read_json(os.path.join(cfg.resolved_output_dir(), "manifest.json"))
    assert manifest["rounds_completed"] == 3


@pytest.mark.parametrize("stop_after_round, writes", [(None, 3), (2, 2)])
def test_periodic_checkpointing_writes_each_round_once(workspace, monkeypatch,
                                                       stop_after_round, writes):
    cfg = _fast_config(workspace, out="periodic_once", checkpoint_every=1,
                       **{"federation.rounds": 3})
    cmd_prepare(cfg)
    rounds, save = [], experiment.save_checkpoint

    def counting_save(path, state, *args, **kwargs):
        rounds.append(state.round)
        return save(path, state, *args, **kwargs)

    monkeypatch.setattr(experiment, "save_checkpoint", counting_save)
    cmd_train(cfg, stop_after_round=stop_after_round)
    assert rounds == list(range(1, writes + 1))


@pytest.mark.parametrize("stop_after", ["0", "-2"])
def test_cli_train_that_would_train_nothing_exits_1_and_writes_nothing(
        workspace, capsys, stop_after):
    cfg = _fast_config(workspace, out="train_nothing")
    path = _write_cfg(workspace, cfg, "train_nothing.json")
    assert cli.main(["prepare", "-c", path]) == 0
    assert cli.main(["train", "-c", path, "--stop-after", stop_after]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(os.listdir(cfg.resolved_output_dir())) == [
        "partition_summary.json", "partitions.json", "pipeline.json"]


def test_cli_resume_must_stop_after_the_checkpoints_round(workspace, capsys):
    cfg = _fast_config(workspace, out="resume_stop", **{"federation.rounds": 3})
    path = _write_cfg(workspace, cfg, "resume_stop.json")
    assert cli.main(["prepare", "-c", path]) == 0
    assert cli.main(["train", "-c", path, "--stop-after", "2"]) == 0
    files = _run_files(cfg)
    for stop_after in ("1", "2"):
        assert cli.main(["train", "-c", path, "--resume", "--stop-after", stop_after]) == 1
        assert "round 2" in capsys.readouterr().err
    assert _run_files(cfg) == files
    assert cli.main(["train", "-c", path, "--resume", "--stop-after", "3"]) == 0
    files = _run_files(cfg)
    # a finished run's resume stays a no-op, whatever it asks for
    assert cli.main(["train", "-c", path, "--resume", "--stop-after", "1"]) == 0
    assert _run_files(cfg) == files


def test_cli_resume_drops_a_torn_last_audit_line(workspace, capsys):
    """A crash mid-append leaves a last audit line without its newline, of a
    round the checkpoint does not hold; --resume drops it and reruns the round."""
    cfg = _fast_config(workspace, out="torn_audit", checkpoint_every=1,
                       **{"federation.rounds": 3})
    path = _write_cfg(workspace, cfg, "torn_audit.json")
    assert cli.main(["prepare", "-c", path]) == 0
    assert cli.main(["train", "-c", path, "--stop-after", "1"]) == 0
    audit = os.path.join(cfg.resolved_output_dir(), "audit.jsonl")
    with open(audit, "a", encoding="utf-8") as fh:
        fh.write('{"client":0,"ro')
    assert cli.main(["train", "-c", path, "--resume"]) == 0, capsys.readouterr().err
    with open(audit, encoding="utf-8") as fh:
        text = fh.read()
    assert text.endswith("\n")
    lines = [json.loads(line) for line in text.splitlines()]
    keys = [(line["round"], line["client"]) for line in lines]
    assert len(keys) == len(set(keys))
    assert sorted({r for r, _ in keys}) == [1, 2, 3]


def _members(path):
    with zipfile.ZipFile(path) as zf:
        return sorted(zf.namelist())


def test_finished_checkpoint_keeps_only_the_model_and_ledgers(workspace):
    extra = dict(DP_ON, **{"federation.strategy": "fedadam",
                           "federation.clients_per_round": 2})
    staged = _fast_config(workspace, out="fedadam", **extra)
    cmd_prepare(staged)
    cmd_train(staged, stop_after_round=1)
    moments = ["adam_m_0.npy", "adam_m_1.npy", "adam_v_0.npy", "adam_v_1.npy",
               "server_m.npy", "server_v.npy"]
    assert _members(_checkpoint(staged)) == sorted(["global_flat.npy", "meta.json"] + moments)

    cmd_train(staged, resume=True)
    assert _members(_checkpoint(staged)) == ["global_flat.npy", "meta.json"]
    state, meta = experiment._read_state(_checkpoint(staged))
    assert state.server is None and "server_updates" not in meta
    assert all(c.adam is None for c in state.clients)
    assert all(c.accountant.steps == 2 * 3 for c in state.clients)  # the ledgers


def test_only_a_resumable_checkpoint_holds_adam_t_and_the_partitions_digest(staged_dp_run):
    """Both are read only to resume: each client's Adam step count beside its
    moments, and the digest of the shards its ledger accounts for."""
    _, staged = load_arrays(_checkpoint(staged_dp_run), names=())
    parts = read_json(os.path.join(staged_dp_run.resolved_output_dir(), "partitions.json"))
    assert staged["partitions_digest"] == json_digest(
        [c["indices"] for c in parts["clients"]])
    assert all("adam_t" in cm for cm in staged["clients"])
    cmd_train(staged_dp_run, resume=True)
    _, finished = load_arrays(_checkpoint(staged_dp_run), names=())
    assert "partitions_digest" not in finished
    assert not any("adam_t" in cm for cm in finished["clients"])


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_staged_checkpoint_holds_server_moments_only_under_fedadam_and_fedyogi(
        workspace, strategy):
    cfg = _fast_config(workspace, out=strategy, **DP_ON,
                       **{"federation.strategy": strategy, "federation.server_lr": 1e-3})
    cmd_prepare(cfg)
    cmd_train(cfg, stop_after_round=1)
    server = strategy in federation.SERVER_OPTIMIZERS
    assert _members(_checkpoint(cfg)) == sorted(
        ["global_flat.npy", "meta.json", "adam_m_0.npy", "adam_m_1.npy",
         "adam_v_0.npy", "adam_v_1.npy"] + ["server_m.npy", "server_v.npy"] * server)
    _, meta = load_arrays(_checkpoint(cfg), names=())
    assert ("server_updates" in meta) is server
    state, _ = experiment._read_state(_checkpoint(cfg))
    assert (state.server is not None) is server
    if server:
        assert state.server.t == 1


@pytest.mark.parametrize("extra", [{}, DP_ON, dict(DP_ON, **{"federation.rounds": 40,
                                                              "dp.epsilon": 2.0})],
                         ids=["no-dp", "dp", "dp-stopped-early"])
def test_checkpoint_meta_keeps_each_fact_once_and_the_ledger_as_triples(workspace, extra):
    """No seeds, learning rate copy or accountant flag; each client's ledger
    is its [q, sigma, count] groups (None without DP), and the accountant they
    rebuild gives the manifest's ε, staged and finished."""
    cfg = _fast_config(workspace, out="meta", **extra)
    cmd_prepare(cfg)
    for stop_after in (1, None):
        manifest = cmd_train(cfg, resume=stop_after is None, stop_after_round=stop_after)
        _, meta = load_arrays(_checkpoint(cfg), names=())
        assert "seeds" not in meta
        for cm in meta["clients"]:
            assert not {"adam_lr", "has_accountant"} & set(cm)
            if not extra:
                assert cm["ledger"] is None
                continue
            assert all(isinstance(q, float) and isinstance(sigma, float)
                       and type(count) is int for q, sigma, count in cm["ledger"])
            acc = RdpAccountant.from_ledger(cm["ledger"])
            eps = None if acc.steps == 0 else acc.to_epsilon(cm["delta"])[0]
            assert eps == manifest["epsilons"][str(cm["client_id"])]


def _run_files(cfg):
    return {name: open(os.path.join(cfg.resolved_output_dir(), name), "rb").read()
            for name in ("checkpoint.npz", "audit.jsonl", "manifest.json")}


@pytest.mark.parametrize("extra, stopped_early", [
    ({}, False),
    ({"dp.epsilon": 2.0, "dp.noise_multiplier": 1.0, "federation.rounds": 40}, True),
])
def test_resume_of_a_finished_run_changes_nothing(workspace, extra, stopped_early):
    cfg = _fast_config(workspace, out="finished", **extra)
    path = _write_cfg(workspace, cfg, "finished.json")
    assert cli.main(["prepare", "-c", path]) == 0
    assert cli.main(["train", "-c", path]) == 0
    before = _run_files(cfg)
    manifest = json.loads(before["manifest.json"])
    assert manifest["stopped_early"] is stopped_early
    assert (manifest["rounds_completed"] < cfg.federation.rounds) is stopped_early
    assert cli.main(["train", "-c", path, "--resume"]) == 0
    assert _run_files(cfg) == before


def test_resume_rewrites_a_manifest_the_final_checkpoint_outran(workspace):
    """A crash between the final checkpoint and its manifest leaves none, or
    the one of a staged session; resume writes it from the ledgers."""
    cfg = _fast_config(workspace, out="outran", **DP_ON)
    cmd_prepare(cfg)
    staged = cmd_train(cfg, stop_after_round=1)
    final = cmd_train(cfg, resume=True)
    manifest_path = os.path.join(cfg.resolved_output_dir(), "manifest.json")
    for left_behind in (staged, None):
        os.remove(manifest_path)
        if left_behind is not None:
            write_json(manifest_path, left_behind)
        rebuilt = cmd_train(cfg, resume=True)
        assert read_json(manifest_path) == rebuilt
        for key in ("config_digest", "pipeline_digest", "rounds_completed",
                    "stopped_early", "epsilons", "versions"):
            assert rebuilt[key] == final[key], key


def test_resume_reads_the_checkpoint_once_and_builds_no_initial_model(
        staged_dp_run, monkeypatch):
    """Resuming an unfinished run, and rebuilding a finished run's lost
    manifest, each read checkpoint.npz once and build no initial model."""
    reads, inits = [], []
    load_arrays_, init_denoiser_ = experiment.load_arrays, experiment.init_denoiser

    def counting_load(*args, **kwargs):
        reads.append(args[0])
        return load_arrays_(*args, **kwargs)

    def counting_init(*args, **kwargs):
        inits.append(args)
        return init_denoiser_(*args, **kwargs)

    monkeypatch.setattr(experiment, "load_arrays", counting_load)
    monkeypatch.setattr(experiment, "init_denoiser", counting_init)
    final = cmd_train(staged_dp_run, resume=True)
    assert final["rounds_completed"] == staged_dp_run.federation.rounds
    assert reads == [_checkpoint(staged_dp_run)] and inits == []
    reads.clear()
    os.remove(os.path.join(staged_dp_run.resolved_output_dir(), "manifest.json"))
    assert cmd_train(staged_dp_run, resume=True)["epsilons"] == final["epsilons"]
    assert reads == [_checkpoint(staged_dp_run)] and inits == []


def test_resume_frees_the_checkpoint_model_once_round_1_replaces_it(
        staged_dp_run, monkeypatch):
    refs, alive = [], []
    read_state, run_round = experiment._read_state, federation.run_round

    def tracked_read(path):
        state, meta = read_state(path)
        refs.append(weakref.ref(state.global_flat))
        return state, meta

    def tracked_round(*args):
        lines = run_round(*args)
        alive.append(refs[0]() is not None)
        return lines

    monkeypatch.setattr(experiment, "_read_state", tracked_read)
    monkeypatch.setattr(federation, "run_round", tracked_round)
    cmd_train(staged_dp_run, resume=True)
    assert alive == [False]


def test_generate_deterministic_and_in_domain(workspace):
    cfg = _fast_config(workspace)
    cmd_prepare(cfg)
    cmd_train(cfg)
    out1 = cmd_generate(cfg)
    bytes1 = open(out1, "rb").read()
    out2 = cmd_generate(cfg)
    assert open(out2, "rb").read() == bytes1

    table = workspace["table"]
    syn = load_csv(out1, table.schema)
    assert syn.n_rows == 40
    vocab = set(table.column("segment").tolist())
    assert set(syn.column("segment").tolist()) <= vocab
    for col in ("x", "y"):
        lo, hi = table.column(col).min(), table.column(col).max()
        assert syn.column(col).min() >= lo - 1e-9
        assert syn.column(col).max() <= hi + 1e-9


def test_generate_seed_and_rows_override(workspace):
    cfg = _fast_config(workspace)
    cmd_prepare(cfg)
    cmd_train(cfg)
    alt = cmd_generate(cfg.replace(n_rows=7, **{"seeds.model": 99}),
                       out_path=str(workspace["tmp"] / "alt.csv"))
    syn = load_csv(alt, workspace["table"].schema)
    assert syn.n_rows == 7
    base = cmd_generate(cfg.replace(n_rows=7),
                        out_path=str(workspace["tmp"] / "base.csv"))
    assert open(alt, "rb").read() != open(base, "rb").read()


@pytest.fixture()
def dp_run(workspace):
    """A trained run with accounting on, so its checkpoint holds accountants."""
    cfg = _fast_config(workspace, out="dp_run", **DP_ON)
    cmd_prepare(cfg)
    cmd_train(cfg)
    return cfg


@pytest.fixture()
def staged_dp_run(workspace):
    """dp_run's config stopped after round 1: a checkpoint with the full
    resumable state (optimizer moments as well as the model and ledgers)."""
    cfg = _fast_config(workspace, out="staged_dp_run", **DP_ON)
    cmd_prepare(cfg)
    cmd_train(cfg, stop_after_round=1)
    return cfg


def _checkpoint(cfg):
    return os.path.join(cfg.resolved_output_dir(), "checkpoint.npz")


def _foreign_format(arrays, meta):
    meta["format"] = "not-a-training-checkpoint"


def _other_pipeline(arrays, meta):
    meta["pipeline_digest"] = "0" * 64


def _wider_model(arrays, meta):
    d_enc = meta["manifest"]["weights"][-1][1]
    wider = init_denoiser(d_enc + 1, hidden_width=16, n_hidden=2, time_dim=8)
    arrays["global_flat"], meta["manifest"] = wider.flat, wider.manifest()


def _no_manifest(arrays, meta):
    del meta["manifest"]


def _no_model(arrays, meta):
    del arrays["global_flat"]


@pytest.mark.parametrize("edit", [_foreign_format, _other_pipeline, _wider_model,
                                  _no_manifest, _no_model])
def test_generate_rejects_checkpoint_it_cannot_sample(dp_run, edit):
    arrays, meta = load_arrays(_checkpoint(dp_run))
    edit(arrays, meta)
    edited = os.path.join(dp_run.resolved_output_dir(), "edited.npz")
    save_arrays(edited, arrays, meta)
    with pytest.raises(CheckpointError):
        cmd_generate(dp_run, checkpoint_path=edited)


@pytest.mark.parametrize("member", ["acc_q_1", "acc_sigma_1", "acc_count_1", "shorter",
                                    "no_ledger"])
def test_resume_refuses_a_checkpoint_with_a_damaged_ledger(staged_dp_run, member):
    """A missing or malformed ledger could restore too few steps and so
    under-report ε; resume refuses the checkpoint instead. Each case damages
    client 1's ledger entry (client 1 trained in round 1, so it has one
    group): its q, its sigma, its count (made fractional), the triple's
    length, or the whole entry."""
    path = _checkpoint(staged_dp_run)
    arrays, meta = load_arrays(path)
    ledger = meta["clients"][1]["ledger"]
    q, sigma, count = ledger[0]
    if member == "no_ledger":
        del meta["clients"][1]["ledger"]
    elif member == "shorter":
        ledger[0] = [q, sigma]
    else:
        ledger[0] = {"acc_q_1": ["x", sigma, count], "acc_sigma_1": [q, None, count],
                     "acc_count_1": [q, sigma, count + 0.5]}[member]
    save_arrays(path, arrays, meta)
    with pytest.raises(CheckpointError, match="ledger"):
        cmd_train(staged_dp_run, resume=True)


@pytest.mark.parametrize("strategy", ["fedavg", "fedadam"])
def test_resume_refuses_server_moments_that_do_not_match_the_strategy(workspace, strategy):
    """A staged FedAdam checkpoint without the server's moments, or a FedAvg
    one with them, is refused instead of failing in the aggregate."""
    cfg = _fast_config(workspace, out=strategy, **{"federation.strategy": strategy})
    cmd_prepare(cfg)
    cmd_train(cfg, stop_after_round=1)
    arrays, meta = load_arrays(_checkpoint(cfg))
    if strategy == "fedadam":
        del arrays["server_m"], arrays["server_v"]
    else:
        arrays.update(server_m=arrays["global_flat"], server_v=arrays["global_flat"])
        meta["server_updates"] = 1
    save_arrays(_checkpoint(cfg), arrays, meta)
    with pytest.raises(CheckpointError, match="server moments"):
        cmd_train(cfg, resume=True)


def test_cli_refuses_a_v1_checkpoint_by_its_format(workspace, staged_dp_run, capsys):
    path = _checkpoint(staged_dp_run)
    arrays, meta = load_arrays(path)
    cfg_path = _write_cfg(workspace, staged_dp_run, "v1.json")
    assert experiment.CHECKPOINT_FORMAT == "fedsynth-checkpoint-v3"
    for old in ("fedsynth-checkpoint-v1", "fedsynth-checkpoint-v2"):
        save_arrays(path, arrays, dict(meta, format=old))
        for argv in (["train", "-c", cfg_path, "--resume"], ["generate", "-c", cfg_path]):
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and repr(old) in err


def test_cli_refuses_a_checkpoint_whose_meta_is_not_an_object(workspace, staged_dp_run,
                                                               capsys):
    path = _checkpoint(staged_dp_run)
    arrays, _ = load_arrays(path)
    save_arrays(path, arrays, [1, 2])
    cfg_path = _write_cfg(workspace, staged_dp_run, "array_meta.json")
    for argv in (["train", "-c", cfg_path, "--resume"], ["generate", "-c", cfg_path]):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "checkpoint.npz" in err


def _no_round(run_dir, arrays, meta):
    del meta["round"]


def _bad_sample_count(run_dir, arrays, meta):
    meta["clients"][1]["n_samples"] = "x"


def _garbage_audit_line(run_dir, arrays, meta):
    with open(os.path.join(run_dir, "audit.jsonl"), "a", encoding="utf-8") as fh:
        fh.write("not json\n")


@pytest.mark.parametrize("edit", [_no_round, _bad_sample_count, _garbage_audit_line])
def test_resume_refuses_a_damaged_checkpoint_or_audit_log(staged_dp_run, edit):
    run_dir = staged_dp_run.resolved_output_dir()
    path = _checkpoint(staged_dp_run)
    arrays, meta = load_arrays(path)
    edit(run_dir, arrays, meta)
    save_arrays(path, arrays, meta)
    damaged = "audit.jsonl" if edit is _garbage_audit_line else "checkpoint.npz"
    with pytest.raises(CheckpointError, match=damaged):
        cmd_train(staged_dp_run, resume=True)


def test_generate_rejects_nonpositive_row_count(dp_run):
    for n_rows in (0, -3):
        with pytest.raises(ValidationError):
            dp_run.replace(n_rows=n_rows)


def _global_params(cfg, path=None):
    arrays, meta = load_arrays(path or _checkpoint(cfg))
    return DenoiserParams.from_flat(arrays["global_flat"], meta["manifest"]), arrays, meta


def test_generate_decodes_with_the_checkpoints_float64_tables(dp_run, monkeypatch):
    seen = {}
    decode = EncodingPipeline.decode

    def spy(self, encoded, embeddings=None):
        seen["encoded"], seen["tables"] = encoded, embeddings
        return decode(self, encoded, embeddings=embeddings)

    monkeypatch.setattr(EncodingPipeline, "decode", spy)
    cmd_generate(dp_run)
    expected = _global_params(dp_run)[0].embeddings
    assert seen["encoded"].dtype == np.float64
    assert len(seen["tables"]) == len(expected) > 0
    for got, want in zip(seen["tables"], expected):
        assert got.dtype == np.float64 and np.array_equal(got, want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_generate_float32_overflow_exits_2_and_writes_no_csv(workspace, dp_run, capsys):
    """Weights that overflow the float32 denoiser, though not float64, still
    stop the chain at its non-finite check."""
    params, arrays, meta = _global_params(dp_run)
    for w in params.weights:  # views into arrays["global_flat"]
        w *= 1e14
    x_top = np.random.default_rng(0).standard_normal((dp_run.n_rows, params.d_enc))
    t_top = dp_run.diffusion.timesteps
    assert np.all(np.isfinite(forward(params, x_top, t_top)))
    assert not np.all(np.isfinite(forward(params.astype(np.float32), x_top, t_top)))
    edited = os.path.join(dp_run.resolved_output_dir(), "huge.npz")
    save_arrays(edited, arrays, meta)
    out = os.path.join(dp_run.resolved_output_dir(), "huge.csv")
    with pytest.raises(DivergenceError, match="non-finite reverse sample"):
        cmd_generate(dp_run, checkpoint_path=edited, out_path=out)
    path = _write_cfg(workspace, dp_run, "huge.json")
    assert cli.main(["generate", "-c", path, "--checkpoint", edited, "--out", out]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_generate_checks_crc_of_members_it_does_not_decode(staged_dp_run):
    path = _checkpoint(staged_dp_run)
    raw = bytearray(open(path, "rb").read())
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo("adam_m_0.npy")
    # local file header: 30 fixed bytes, then the name and the extra field
    name_len, extra_len = struct.unpack("<HH", raw[info.header_offset + 26:
                                                   info.header_offset + 30])
    data_start = info.header_offset + 30 + name_len + extra_len
    raw[data_start + info.file_size // 2] ^= 0x01
    open(path, "wb").write(bytes(raw))
    with pytest.raises(CheckpointError):
        cmd_generate(staged_dp_run)


def test_generate_rebuilds_no_accountant(staged_dp_run, monkeypatch):
    calls = []
    account_step = RdpAccountant.account_step

    def spy(self, *args, **kwargs):
        calls.append(args)
        return account_step(self, *args, **kwargs)

    monkeypatch.setattr(RdpAccountant, "account_step", spy)
    cmd_generate(staged_dp_run)
    assert calls == []
    experiment._read_state(_checkpoint(staged_dp_run))  # the spy does see a rebuild
    assert calls


def test_generate_feeds_the_benchmark_probes(workspace, monkeypatch):
    """The benchmark wraps experiment.forward, reading its second argument
    as the batch (the chain's float64 x), and diffusion.p_sample_step; each
    runs once per sampled step. A schedule longer than SAMPLE_STEPS is
    respaced, and the denoiser is asked about the original steps tau."""
    forward_args, steps = [], []
    forward, p_sample_step = experiment.forward, diffusion.p_sample_step

    def counting_forward(*args, **kwargs):
        forward_args.append((args[1].shape, args[1].dtype, args[2]))
        return forward(*args, **kwargs)

    def counting_step(*args, **kwargs):
        steps.append(1)
        return p_sample_step(*args, **kwargs)

    for timesteps in (10, 3 * diffusion.SAMPLE_STEPS - 7):
        cfg = _fast_config(workspace, out=f"probes_{timesteps}",
                           **{"diffusion.timesteps": timesteps}, **DP_ON)
        cmd_prepare(cfg)
        cmd_train(cfg)
        forward_args.clear()
        steps.clear()
        with monkeypatch.context() as patch:
            patch.setattr(experiment, "forward", counting_forward)
            patch.setattr(diffusion, "p_sample_step", counting_step)
            cmd_generate(cfg)
        d_enc = load_arrays(_checkpoint(cfg))[1]["manifest"]["weights"][-1][1]
        if timesteps <= diffusion.SAMPLE_STEPS:
            tau = list(range(1, timesteps + 1))
        else:
            tau = [round(v) for v in np.linspace(1, timesteps, diffusion.SAMPLE_STEPS)]
        assert tau[0] == 1 and tau[-1] == timesteps
        assert len(steps) == len(tau) == min(timesteps, diffusion.SAMPLE_STEPS)
        assert forward_args == [((cfg.n_rows, d_enc), np.float64, t) for t in reversed(tau)]


def test_evaluate_self_report(workspace, tmp_path):
    out = tmp_path / "rep.json"
    report = cmd_evaluate(workspace["real"], workspace["real"],
                          workspace["schema"], seed=3, n_attacks=20,
                          out_path=str(out))
    assert report.omega == 1.0
    on_disk = read_json(str(out))
    assert on_disk["fidelity"]["omega"] == 1.0


def test_run_pipeline_writes_report(workspace):
    cfg = _fast_config(workspace, out="pipeline")
    report = run_pipeline(cfg)
    path = os.path.join(cfg.resolved_output_dir(), "report.json")
    on_disk = read_json(path)
    assert on_disk["fidelity"]["omega"] == pytest.approx(report.omega)
    assert on_disk["metadata"]["config_digest"] == cfg.digest


# ---------------------------------------------------------------------------
# Sweep


def test_sweep_grid_and_resume(workspace):
    cfg = _fast_config(workspace, out="sweep", n_rows=30, n_attacks=8)
    cfg = cfg.replace(sweep={"epsilon": ["inf", 3.0], "seed": [0, 1]})
    rows = cmd_sweep(cfg)
    assert len(rows) == 4
    assert all(r["status"] == "ok" for r in rows)
    cells = {r["cell"] for r in rows}
    assert cells == {"epsilon=inf__seed=0", "epsilon=inf__seed=1",
                     "epsilon=3.0__seed=0", "epsilon=3.0__seed=1"}
    results_path = os.path.join(cfg.resolved_output_dir(), "sweep_results.json")
    first = open(results_path, "rb").read()
    # rerun: every cell already has a report, so results are reproduced
    rows2 = cmd_sweep(cfg)
    assert rows2 == rows
    assert open(results_path, "rb").read() == first


def test_sweep_under_relative_output_root_resumes(workspace, monkeypatch):
    monkeypatch.chdir(workspace["tmp"])
    monkeypatch.setenv(OUTPUT_ROOT_ENV, "rel")
    cfg = _fast_config(workspace, n_rows=30, n_attacks=8).replace(
        output_dir="out", sweep={"seed": [0]})
    rows = cmd_sweep(cfg)
    assert [r["status"] for r in rows] == ["ok"]
    cell_dir = os.path.join("rel", "out", "sweep", "seed=0")
    assert rows[0]["report"] == os.path.join(cell_dir, "report.json")

    def rerun(_config):
        raise AssertionError("a cell with a report must not run again")

    monkeypatch.setattr(experiment, "run_pipeline", rerun)
    assert cmd_sweep(cfg) == rows


def test_sweep_cell_failure_is_recorded(workspace):
    cfg = _fast_config(workspace, out="sweep_fail", n_rows=30, n_attacks=8)
    cfg = cfg.replace(sweep={"epsilon": [0.0001]})
    rows = cmd_sweep(cfg)
    assert len(rows) == 1
    assert rows[0]["status"] == "failed"
    assert "epsilon" in rows[0]["error"] or "sigma" in rows[0]["error"]


def test_sweep_rejects_empty_axis(workspace):
    cfg = _fast_config(workspace).replace(sweep={"epsilon": []})
    with pytest.raises(ValidationError):
        cmd_sweep(cfg)


@pytest.mark.parametrize("seeds", [["a"], [0, "a"], [0, None], [0.5]])
def test_sweep_rejects_non_integer_seed_axis_before_any_cell(workspace, seeds):
    cfg = _fast_config(workspace, out="bad_seed").replace(sweep={"seed": seeds})
    with pytest.raises(ValidationError, match="seed"):
        cmd_sweep(cfg)
    assert not os.path.exists(cfg.resolved_output_dir())


def test_sweep_with_a_bad_axis_value_trains_no_cell(workspace):
    cfg = _fast_config(workspace, out="bad_rounds").replace(sweep={"rounds": [1, 0]})
    with pytest.raises(ValidationError, match="federation.rounds"):
        cmd_sweep(cfg)
    assert not os.path.exists(cfg.resolved_output_dir())


def test_sweep_rejects_unknown_axis(workspace):
    cfg = _fast_config(workspace).replace(sweep={"warp": [1]})
    with pytest.raises(ValidationError):
        cmd_sweep(cfg)


def _one_column_inputs(ws, target: bool) -> tuple:
    """A CSV of one categorical column and its schema, the column the target or not."""
    real, schema = ws["tmp"] / "one_column.csv", ws["tmp"] / "one_column.json"
    real.write_text("c\n" + "".join(f"{'ab'[i % 2]}\n" for i in range(60)))
    declared = {"columns": [{"name": "c", "kind": "categorical"}]}
    schema.write_text(json.dumps(dict(declared, target="c") if target else declared))
    return str(real), str(schema)


def test_sweep_over_a_one_column_table_records_a_failed_cell(workspace):
    real, schema = _one_column_inputs(workspace, target=True)
    cfg = _fast_config(workspace, out="one_column", n_rows=30, n_attacks=8).replace(
        dataset=real, schema=schema, partition="iid", sweep={"seed": [0]})
    rows = cmd_sweep(cfg)
    assert [r["status"] for r in rows] == ["failed"]
    assert "two columns" in rows[0]["error"]


# ---------------------------------------------------------------------------
# CLI surface


def _write_cfg(ws, cfg, name="cfg.json"):
    path = ws["tmp"] / name
    path.write_text(json.dumps(cfg.to_dict()))
    return str(path)


def test_cli_full_cycle_exit_codes(workspace, capsys):
    cfg = _fast_config(workspace, out="cli_run")
    path = _write_cfg(workspace, cfg)
    assert cli.main(["prepare", "-c", path]) == 0
    assert cli.main(["train", "-c", path]) == 0
    assert cli.main(["generate", "-c", path]) == 0
    syn = os.path.join(cfg.resolved_output_dir(), "synthetic.csv")
    assert cli.main(["evaluate", "--real", workspace["real"], "--syn", syn,
                     "--schema", workspace["schema"], "--n-attacks", "5"]) == 0
    out = capsys.readouterr().out
    assert "omega=" in out and "pi=" in out


@pytest.mark.parametrize("argv", [
    ["evaluate", "--real", "r.csv", "--syn", "s.csv", "--schema", "x.json",
     "--n-attacks", "abc"],
    ["train", "-c", "run.json", "--stop-after", "1.5"], ["bogus"], ["prepare"]],
    ids=["evaluate-n-attacks", "train-stop-after", "bogus", "prepare-without-c"])
def test_cli_usage_error_exits_1_not_the_divergence_code(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: fedsynth") and "error: " in err


def test_cli_help_still_exits_0(capsys):
    for argv in (["--help"], ["train", "--help"]):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: fedsynth")


def test_cli_validation_error_exits_1(workspace, capsys):
    assert cli.main(["prepare", "-c", "/no/such/config.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_bad_attack_count_or_seed_exits_1(workspace, capsys):
    real, schema = workspace["real"], workspace["schema"]
    evaluate = ["evaluate", "--real", real, "--syn", real, "--schema", schema]
    for flags, message in ((["--n-attacks", "0"], "n_attacks"),
                           (["--n-attacks", "-3"], "n_attacks"),
                           (["--seed", "-1"], "seed")):
        assert cli.main(evaluate + flags) == 1
        assert message in capsys.readouterr().err

    cfg = _fast_config(workspace, out="cli_bad_seed")
    path = _write_cfg(workspace, cfg, "bad_seed.json")
    assert cli.main(["prepare", "-c", path]) == 0
    assert cli.main(["train", "-c", path]) == 0
    capsys.readouterr()
    assert cli.main(["generate", "-c", path, "--seed", "-1"]) == 1
    assert "seeds.model" in capsys.readouterr().err


def test_cli_generate_rows_and_seed_are_spellings_of_set(workspace):
    cfg = _fast_config(workspace, out="cli_spellings")
    path = _write_cfg(workspace, cfg, "spellings.json")
    assert cli.main(["prepare", "-c", path]) == 0
    assert cli.main(["train", "-c", path]) == 0
    outs = [str(workspace["tmp"] / name) for name in ("flags.csv", "set.csv")]
    assert cli.main(["generate", "-c", path, "--rows", "7", "--seed", "99",
                     "--out", outs[0]]) == 0
    assert cli.main(["generate", "-c", path, "--set", "n_rows=7",
                     "--set", "seeds.model=99", "--out", outs[1]]) == 0
    flags, set_ = (open(out, "rb").read() for out in outs)
    assert flags == set_ and flags.count(b"\n") == 8


@pytest.mark.parametrize("flags, key", [(["--rows", "0"], "n_rows"),
                                        (["--rows", "abc"], "n_rows"),
                                        (["--seed", "-1"], "seeds.model")])
def test_cli_generate_bad_rows_or_seed_exits_1_naming_the_key(workspace, capsys,
                                                              flags, key):
    path = _write_cfg(workspace, _fast_config(workspace), "bad_generate.json")
    assert cli.main(["generate", "-c", path, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


NUMERIC_KEYS = ["n_rows", "n_attacks", "test_fraction", "checkpoint_every",
                "seeds.model", "seeds.data", "seeds.attack",
                "model.hidden_width", "model.n_hidden", "model.time_dim",
                "diffusion.timesteps", "federation.n_clients", "federation.rounds",
                "federation.local_steps", "federation.clients_per_round",
                "federation.prox_mu", "federation.batch_size",
                "federation.learning_rate", "federation.server_lr",
                "dp.epsilon", "dp.delta", "dp.clip_norm", "dp.noise_multiplier"]
# the keys whose range admits 0, so that false would read as a valid 0
ZERO_KEYS = ["checkpoint_every", "seeds.model", "seeds.data", "seeds.attack",
             "federation.prox_mu", "dp.noise_multiplier"]


@pytest.mark.parametrize("setting", [f"{key}=true" for key in NUMERIC_KEYS]
                         + [f"{key}=false" for key in ZERO_KEYS])
def test_cli_boolean_for_a_number_exits_1(workspace, capsys, setting):
    path = _write_cfg(workspace, _fast_config(workspace), "boolean.json")
    assert cli.main(["prepare", "-c", path, "-s", setting]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and setting.split("=")[0].split(".")[-1] in err


@pytest.mark.parametrize("target", [True, False])
def test_cli_evaluate_of_a_one_column_table_exits_1(workspace, capsys, target):
    real, schema = _one_column_inputs(workspace, target)
    assert cli.main(["evaluate", "--real", real, "--syn", real, "--schema", schema]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "two columns" in err


@pytest.mark.parametrize("time_dim", [-2, 0, 3])
def test_config_rejects_time_dim_not_positive_even(workspace, time_dim):
    with pytest.raises(ValidationError, match="time_dim"):
        _fast_config(workspace, **{"model.time_dim": time_dim})


@pytest.mark.parametrize("time_dim", ["-2", "0", "3"])
def test_cli_bad_time_dim_exits_1(workspace, capsys, time_dim):
    path = _write_cfg(workspace, _fast_config(workspace), "time_dim.json")
    assert cli.main(["prepare", "-c", path, "-s", f"model.time_dim={time_dim}"]) == 1
    assert "time_dim" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["model.hidden_width", "model.n_hidden",
                                 "federation.n_clients", "federation.rounds",
                                 "federation.local_steps",
                                 "federation.clients_per_round",
                                 "federation.batch_size"])
def test_cli_non_integer_integer_setting_exits_1(workspace, capsys, key):
    path = _write_cfg(workspace, _fast_config(workspace), "non_integer.json")
    assert cli.main(["prepare", "-c", path, "-s", f"{key}=2.5"]) == 1
    assert "integer" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["n_rows=2.5", "n_attacks=2.5",
                                     "diffusion.timesteps=2.5",
                                     "diffusion.timesteps=0",
                                     "diffusion.timesteps=10001",
                                     "checkpoint_every=-1",
                                     "checkpoint_every=1.5", "seeds.model=1.5",
                                     "seeds.data=-1"])
def test_cli_bad_integer_setting_exits_1(workspace, capsys, setting):
    path = _write_cfg(workspace, _fast_config(workspace), "bad_integer.json")
    assert cli.main(["prepare", "-c", path, "-s", setting]) == 1
    err = capsys.readouterr().err
    assert setting.split("=")[0] in err and "integer" in err


@pytest.mark.parametrize("setting", ["federation.server_lr=Infinity",
                                     "federation.server_lr=NaN",
                                     "federation.learning_rate=NaN",
                                     "federation.learning_rate=Infinity",
                                     "federation.prox_mu=NaN",
                                     "federation.prox_mu=Infinity",
                                     "dp.noise_multiplier=NaN",
                                     "dp.noise_multiplier=Infinity",
                                     "dp.clip_norm=Infinity"])
def test_cli_non_finite_setting_exits_1(workspace, capsys, setting):
    path = _write_cfg(workspace, _fast_config(workspace), "non_finite.json")
    assert cli.main(["prepare", "-c", path, "-s", setting]) == 1
    assert "finite" in capsys.readouterr().err


def test_cli_train_reports_clients_that_never_trained(workspace, capsys):
    """With one client a round, one round leaves two clients with no ε."""
    cfg = _fast_config(workspace, out="untrained", **{
        "federation.n_clients": 3, "federation.rounds": 1,
        "federation.clients_per_round": 1, "dp.epsilon": 5.0})
    path = _write_cfg(workspace, cfg, "untrained.json")
    assert cli.main(["prepare", "-c", path]) == 0
    assert cli.main(["train", "-c", path]) == 0
    epsilons = read_json(os.path.join(cfg.resolved_output_dir(), "manifest.json"))["epsilons"]
    assert sorted(v is None for v in epsilons.values()) == [False, True, True]
    assert capsys.readouterr().out.count("not trained") == 2


@pytest.mark.parametrize("setting", ["federation.server_beta1=0.9",
                                     "federation.server_beta2=0.999",
                                     "federation.server_eps=1e-8",
                                     "diffusion.beta_start=0.0001",
                                     "diffusion.beta_end=0.02",
                                     "model.n_quantiles=1000"])
def test_cli_removed_setting_exits_1(workspace, capsys, setting):
    path = _write_cfg(workspace, _fast_config(workspace), "removed.json")
    assert cli.main(["prepare", "-c", path, "-s", setting]) == 1
    assert setting.split(".")[1].split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("command, setting", [
    ("prepare", "test_fraction=1.5"), ("prepare", "test_fraction=0"),
    ("sweep", 'test_fraction="abc"'), ("sweep", "sweep=5"),
    ("sweep", 'sweep={"seed": ["a"]}')])
def test_cli_bad_test_fraction_or_sweep_exits_1_before_any_stage(workspace, capsys,
                                                                command, setting):
    cfg = _fast_config(workspace, out="bad_setting").replace(sweep={"seed": [0]})
    path = _write_cfg(workspace, cfg, "bad_setting.json")
    assert cli.main([command, "-c", path, "-s", setting]) == 1
    assert setting.split("=")[0] in capsys.readouterr().err
    assert not os.path.exists(cfg.resolved_output_dir())


@pytest.mark.parametrize("config, overrides", [
    ('{"dp": null}', []), ('{"dp": 5}', []), ('{"seeds": [1]}', []),
    ("[1, 2]", []), ('{"dp": null}', ["dp.epsilon=1"]),
    ('{"sweep": {"epsilon": [NaN]}}', []),
    ('{"sweep": {"epsilon": [1, -Infinity]}}', [])])
def test_cli_malformed_config_exits_1_without_a_traceback(workspace, config, overrides):
    path = workspace["tmp"] / "malformed.json"
    path.write_text(config)
    argv = ["prepare", "-c", str(path)] + [f"--set={item}" for item in overrides]
    out = subprocess.run([sys.executable, "-m", "fedsynth.cli", *argv],
                         cwd=workspace["tmp"], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr


def test_cli_prepare_refuses_a_numeric_target(workspace, capsys):
    cfg = _fast_config(workspace, out="numeric_target")
    path = _write_cfg(workspace, cfg, "numeric_target.json")
    setting = _schema_with(workspace, target="x")
    assert cli.main(["prepare", "-c", path, "--set", setting]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'x' must be categorical" in err
    assert not os.path.exists(cfg.resolved_output_dir())


def test_cli_train_with_a_one_row_client_names_it_under_the_default_delta(workspace, capsys):
    """With dp.delta unset each client's delta is 1/rows, which a one-row
    client cannot have; the error names the client, not a delta of 1."""
    real = workspace["tmp"] / "six_rows.csv"
    write_csv(real, gaussian_mixture_table(6, seed=7))
    cfg = _fast_config(workspace, out="one_row", partition="iid",
                       **{"federation.n_clients": 6, "dp.epsilon": 5.0}).replace(
        dataset=str(real))
    path = _write_cfg(workspace, cfg, "one_row.json")
    assert cli.main(["prepare", "-c", path]) == 0
    assert cli.main(["train", "-c", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: client 0 holds 1 row") and "dp.delta" in err


def _schema_with(ws, **edit):
    schema = dict(read_json(ws["schema"]), **edit)
    path = ws["tmp"] / "edited_schema.json"
    path.write_text(json.dumps(schema))
    return f"schema={path}"


@pytest.mark.parametrize("setting", [
    "output_dir=5", "dataset=[1]", "schema=null",
    lambda ws: _schema_with(ws, target=["x"]),
    lambda ws: _schema_with(ws, partition_by=5),
    lambda ws: _schema_with(ws, columns=[{"name": ["x"], "kind": "numeric"}])],
    ids=["output_dir", "dataset", "schema", "target", "partition_by", "column-name"])
def test_cli_non_string_path_or_schema_name_exits_1_without_a_traceback(workspace, setting):
    cfg = _fast_config(workspace, out="non_string")
    path = _write_cfg(workspace, cfg, "non_string.json")
    setting = setting if isinstance(setting, str) else setting(workspace)
    out = subprocess.run([sys.executable, "-m", "fedsynth.cli", "prepare", "-c", path,
                          "--set", setting],
                         cwd=workspace["tmp"], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr


@pytest.mark.parametrize("stage", ["generate", "evaluate", "prepare"])
def test_cli_output_path_that_cannot_be_written_exits_1_naming_it(workspace, stage):
    """A missing parent directory, or a file where a directory must go, is
    one error line naming the path given, not a traceback or a temp file."""
    cfg = _fast_config(workspace, out="unwritable")
    path = _write_cfg(workspace, cfg, "unwritable.json")
    if stage == "generate":
        cmd_prepare(cfg)
        cmd_train(cfg)
    argv, named = {
        "generate": (["generate", "-c", path, "--out", "nodir/x.csv"], "nodir/x.csv"),
        "evaluate": (["evaluate", "--real", workspace["real"], "--syn", workspace["real"],
                      "--schema", workspace["schema"], "--n-attacks", "5",
                      "--out", "nodir/r.json"], "nodir/r.json"),
        "prepare": (["prepare", "-c", path, "--set", "output_dir=real.csv/run"],
                    "real.csv/run"),
    }[stage]
    out = subprocess.run([sys.executable, "-m", "fedsynth.cli", *argv],
                         cwd=workspace["tmp"], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr
    assert named in out.stderr and ".tmp." not in out.stderr
    assert out.stderr.count("\n") == 1


def test_cli_train_reads_the_schema_prepare_fitted(workspace, capsys):
    """After prepare, pipeline.json's schema is the schema: renaming a column
    in schema.json and in the CSV header makes train exit 1 naming the column
    the data lacks."""
    cfg = _fast_config(workspace, out="renamed")
    path = _write_cfg(workspace, cfg, "renamed.json")
    assert cli.main(["prepare", "-c", path]) == 0
    schema = read_json(workspace["schema"])
    schema["columns"] = [dict(c, name="y2" if c["name"] == "y" else c["name"])
                         for c in schema["columns"]]
    write_json(workspace["schema"], schema)
    with open(workspace["real"], encoding="utf-8") as fh:
        header, rest = fh.read().split("\n", 1)
    with open(workspace["real"], "w", encoding="utf-8") as fh:
        fh.write(",".join("y2" if name == "y" else name for name in header.split(","))
                 + "\n" + rest)
    assert cli.main(["train", "-c", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing column(s) ['y']" in err


def test_config_writes_an_infinite_sweep_value_as_inf(workspace):
    cfg = _fast_config(workspace).replace(sweep={"epsilon": [1.0, math.inf]})
    assert cfg.to_dict()["sweep"] == {"epsilon": [1.0, "inf"]}
    assert cfg.digest == cfg.replace(sweep={"epsilon": [1.0, "inf"]}).digest


def test_cli_train_with_a_malformed_pipeline_exits_1(workspace, capsys):
    cfg = _fast_config(workspace, out="bad_pipeline")
    path = _write_cfg(workspace, cfg, "bad_pipeline.json")
    assert cli.main(["prepare", "-c", path]) == 0
    pipeline_path = os.path.join(cfg.resolved_output_dir(), "pipeline.json")
    pipeline = read_json(pipeline_path)
    del pipeline["vocabularies"]
    write_json(pipeline_path, pipeline)
    assert cli.main(["train", "-c", path]) == 1
    assert "vocabularies" in capsys.readouterr().err
    with open(pipeline_path, "a", encoding="utf-8") as fh:
        fh.write("{")
    assert cli.main(["train", "-c", path]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def _reversed(clients):
    clients.reverse()


def _rows_of_client_0(clients):
    clients[1]["indices"] = clients[0]["indices"]


def _row_twice(clients):
    clients[0]["indices"].append(clients[0]["indices"][0])


def _first_row(value):
    def edit(clients):
        clients[0]["indices"][0] = value
    edit.__name__ = f"_first_row_{value!r}"
    return edit


def _one_client(clients):
    del clients[1]


def _row_past_the_table(clients):
    clients[0]["indices"].append(240)


def _no_indices(clients):
    del clients[0]["indices"]


def _empty_shard(clients):
    clients[1]["indices"] = []


@pytest.mark.parametrize("edit", [
    _reversed, _rows_of_client_0, _row_twice, _first_row(-1), _first_row(1.5),
    _first_row("3"), _one_client, _row_past_the_table, _no_indices, _empty_shard,
    "top-level array"], ids=lambda edit: getattr(edit, "__name__", edit))
def test_cli_train_with_malformed_partitions_exits_1(workspace, capsys, edit):
    """Each edit breaks what training assumes: entry i is client i's shard of
    distinct rows of the table, so that client i's ε bounds exactly those rows."""
    cfg = _fast_config(workspace, out="bad_partitions")
    path = _write_cfg(workspace, cfg, "bad_partitions.json")
    assert cli.main(["prepare", "-c", path]) == 0
    parts_path = os.path.join(cfg.resolved_output_dir(), "partitions.json")
    parts = read_json(parts_path)
    if edit == "top-level array":
        parts = parts["clients"]
    else:
        edit(parts["clients"])
    write_json(parts_path, parts)
    assert cli.main(["train", "-c", path]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(_checkpoint(cfg))


def test_resume_refuses_shards_of_another_size(staged_dp_run):
    parts_path = os.path.join(staged_dp_run.resolved_output_dir(), "partitions.json")
    parts = read_json(parts_path)
    parts["clients"][0]["indices"].append(parts["clients"][1]["indices"].pop())
    write_json(parts_path, parts)
    with pytest.raises(CheckpointError, match="partitions.json"):
        cmd_train(staged_dp_run, resume=True)


def test_resume_refuses_rows_moved_between_clients(workspace, capsys):
    """Swapping one row between two shards keeps their sizes, but the
    ledgers no longer account for the rows each client holds."""
    cfg = _fast_config(workspace, out="moved_rows", **DP_ON)
    path = _write_cfg(workspace, cfg, "moved_rows.json")
    assert cli.main(["prepare", "-c", path]) == 0
    assert cli.main(["train", "-c", path, "--stop-after", "1"]) == 0
    parts_path = os.path.join(cfg.resolved_output_dir(), "partitions.json")
    parts = read_json(parts_path)
    first, second = (parts["clients"][cid]["indices"] for cid in (0, 1))
    first[0], second[0] = second[0], first[0]
    write_json(parts_path, parts)
    assert cli.main(["train", "-c", path, "--resume"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "partitions.json" in err


def test_config_rejects_nonpositive_n_attacks(workspace):
    with pytest.raises(ValidationError):
        _fast_config(workspace, n_attacks=0)


def test_cli_budget_error_exits_3(workspace, capsys):
    cfg = _fast_config(workspace, out="cli_budget",
                       **{"dp.epsilon": 0.0001})
    path = _write_cfg(workspace, cfg, "budget.json")
    assert cli.main(["prepare", "-c", path]) == 0
    assert cli.main(["train", "-c", path]) == 3
    assert "budget" in capsys.readouterr().err.lower()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_cli_divergence_error_exits_2(workspace, capsys):
    cfg = _fast_config(workspace, out="cli_diverge",
                       **{"federation.learning_rate": 1e154,
                          "federation.rounds": 2})
    path = _write_cfg(workspace, cfg, "diverge.json")
    assert cli.main(["prepare", "-c", path]) == 0
    assert cli.main(["train", "-c", path]) == 2
    assert "diverged" in capsys.readouterr().err.lower()


def test_cli_set_override(workspace, capsys):
    cfg = _fast_config(workspace, out="cli_override")
    path = _write_cfg(workspace, cfg, "override.json")
    assert cli.main(["prepare", "-c", path, "-s", 'partition="iid"']) == 0
    assert "(iid)" in capsys.readouterr().out


def test_cli_report_renders_both_shapes(workspace, capsys, tmp_path):
    cfg = _fast_config(workspace, out="cli_report")
    report = run_pipeline(cfg)
    rep_path = os.path.join(cfg.resolved_output_dir(), "report.json")
    assert cli.main(["report", rep_path]) == 0
    assert "fidelity" in capsys.readouterr().out
    assert cli.main(["report", "/missing.json"]) == 1


@pytest.mark.parametrize("payload", ["{}", "[1, 2]"])
def test_cli_report_of_a_malformed_file_exits_1(tmp_path, capsys, payload):
    path = tmp_path / "report.json"
    path.write_text(payload)
    assert cli.main(["report", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("payload", [b"{not json", b"[1, 2]", b'{"caf\xe9": 1}'],
                         ids=["not-json", "array", "latin-1"])
@pytest.mark.parametrize("damaged", ["config", "schema", "dataset", "pipeline",
                                     "partitions", "manifest", "sweep-report",
                                     "sweep-manifest", "report"])
def test_cli_a_malformed_run_file_exits_1_naming_it(workspace, capsys, damaged, payload):
    """A run file that is not UTF-8, not JSON, or not the JSON it should be
    is one error line naming it. In a sweep, a cell whose report or manifest
    cannot be read is a failed row naming the file, and the sweep writes its
    results."""
    cfg = _fast_config(workspace, out="malformed", n_rows=30, n_attacks=8)
    if damaged.startswith("sweep"):
        cfg = cfg.replace(sweep={"seed": [0]})
    path = _write_cfg(workspace, cfg, "malformed.json")
    run_dir = cfg.resolved_output_dir()
    cell_dir = os.path.join(run_dir, "sweep", "seed=0")
    report = str(workspace["tmp"] / "report.json")
    argv, target = {
        "config": (["prepare", "-c", path], path),
        "schema": (["prepare", "-c", path], workspace["schema"]),
        "dataset": (["prepare", "-c", path], workspace["real"]),
        "pipeline": (["train", "-c", path], os.path.join(run_dir, "pipeline.json")),
        "partitions": (["train", "-c", path], os.path.join(run_dir, "partitions.json")),
        "manifest": (["train", "-c", path, "--resume"],
                     os.path.join(run_dir, "manifest.json")),
        "sweep-report": (["sweep", "-c", path], os.path.join(cell_dir, "report.json")),
        "sweep-manifest": (["sweep", "-c", path], os.path.join(cell_dir, "manifest.json")),
        "report": (["report", report], report),
    }[damaged]
    if damaged in ("pipeline", "partitions", "manifest"):
        assert cli.main(["prepare", "-c", path]) == 0
    if damaged == "manifest":
        assert cli.main(["train", "-c", path]) == 0
    if damaged.startswith("sweep"):
        assert cli.main(argv) == 0
    capsys.readouterr()
    with open(target, "wb") as fh:
        fh.write(payload)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    named = os.path.basename(target)
    assert "Traceback" not in err
    if damaged.startswith("sweep"):
        assert code == 0 and err == ""
        rows = read_json(os.path.join(run_dir, "sweep_results.json"))
        assert [row["status"] for row in rows] == ["failed"]
        assert named in rows[0]["error"] and named in out
    else:
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err


def test_sweep_reruns_a_cell_whose_directory_was_deleted(workspace):
    cfg = _fast_config(workspace, out="sweep_rerun", n_rows=30, n_attacks=8).replace(
        sweep={"seed": [0]})
    rows = cmd_sweep(cfg)
    cell_dir = os.path.join(cfg.resolved_output_dir(), "sweep", "seed=0")
    with open(os.path.join(cell_dir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write("{}")
    assert [row["status"] for row in cmd_sweep(cfg)] == ["failed"]
    shutil.rmtree(cell_dir)
    assert cmd_sweep(cfg) == rows


def test_sweep_reruns_a_cell_that_another_config_trained(workspace, monkeypatch):
    """A cell's report counts only under the cell config's digest: after a
    config change the cell trains again, and then it is reused."""
    cfg = _fast_config(workspace, out="sweep_changed", n_rows=30, n_attacks=8).replace(
        sweep={"seed": [0]})
    cell_dir = os.path.join(cfg.resolved_output_dir(), "sweep", "seed=0")
    assert cmd_sweep(cfg.replace(**{"federation.rounds": 1}))[0]["status"] == "ok"
    assert read_json(os.path.join(cell_dir, "manifest.json"))["rounds_completed"] == 1
    longer = cfg.replace(**{"federation.rounds": 3})
    rows = cmd_sweep(longer)
    assert rows[0]["status"] == "ok"
    assert read_json(os.path.join(cell_dir, "manifest.json"))["rounds_completed"] == 3
    cell_digest = experiment._cell_config(longer, {"seed": 0}, os.path.join(
        longer.output_dir, "sweep", "seed=0")).digest
    report = read_json(os.path.join(cell_dir, "report.json"))
    assert report["metadata"]["config_digest"] == cell_digest

    def rerun(_config):
        raise AssertionError("a cell reported under its own config must not run again")

    monkeypatch.setattr(experiment, "run_pipeline", rerun)
    assert cmd_sweep(longer) == rows


def test_sweep_names_cells_by_the_config_files_spelling(workspace):
    """A cell is named by its value as the config's JSON form writes it, so
    "INF" and "inf" are two cells, each trained at ε = ∞ (no ε recorded)."""
    cfg = _fast_config(workspace, out="sweep_spelling", n_rows=30, n_attacks=8).replace(
        sweep={"epsilon": ["INF", "inf", 3.0]})
    rows = cmd_sweep(cfg)
    assert [row["cell"] for row in rows] == ["epsilon=3.0", "epsilon=INF", "epsilon=inf"]
    assert [row["assignment"] for row in rows] == [
        {"epsilon": 3.0}, {"epsilon": "INF"}, {"epsilon": "inf"}]
    assert [row["status"] for row in rows] == ["ok"] * 3
    assert [bool(row["epsilons"]) for row in rows] == [True, False, False]
    assert sorted(os.listdir(os.path.join(cfg.resolved_output_dir(), "sweep"))) == [
        "epsilon=3.0", "epsilon=INF", "epsilon=inf"]


@pytest.mark.parametrize("axis", ["output_dir", "sweep", "sweep.epsilon"])
def test_cli_sweep_over_a_key_each_cell_sets_exits_1_naming_it(workspace, capsys, axis):
    cfg = _fast_config(workspace, out="sweep_own_key").replace(sweep={axis: ["x"]})
    path = _write_cfg(workspace, cfg, "sweep_own_key.json")
    assert cli.main(["sweep", "-c", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and repr(axis) in err
    assert not os.path.exists(cfg.resolved_output_dir())


@pytest.mark.parametrize("field, value, dp", [
    ("sigma", "x", {}), ("delta", "x", {}), ("sigma", None, {}), ("n_samples", 0, {}),
    ("sigma", -1.0, {}), ("delta", None, {}), ("n_samples", 2.5, {}),
    ("sigma", None, {"dp.epsilon": "inf", "dp.noise_multiplier": 1.0})])
def test_cli_resume_of_a_tampered_client_entry_exits_1_naming_the_checkpoint(
        workspace, capsys, field, value, dp):
    """Each client entry is checked as the checkpoint is read: an integer
    n_samples >= 1, a sigma that is null or a finite number >= 0, a delta
    that is null or in (0, 1), neither null for a client with a ledger, and
    no null sigma where dp clips and noises (the last case has no ledger)."""
    cfg = _fast_config(workspace, out="tampered", **{
        "federation.rounds": 3, "dp.epsilon": 5.0, **dp})
    path = _write_cfg(workspace, cfg, "tampered.json")
    assert cli.main(["prepare", "-c", path]) == 0
    assert cli.main(["train", "-c", path, "--stop-after", "1"]) == 0
    checkpoint = _checkpoint(cfg)
    arrays, meta = load_arrays(checkpoint)
    assert (meta["clients"][0]["ledger"] is None) == ("dp.noise_multiplier" in dp)
    meta["clients"][0][field] = value
    save_arrays(checkpoint, arrays, meta)
    capsys.readouterr()
    assert cli.main(["train", "-c", path, "--resume"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "checkpoint.npz" in err and "Traceback" not in err


def test_cli_evaluate_of_a_column_whose_range_overflows_exits_1_naming_it(
        workspace, capsys):
    """A numeric range max - min past float64's largest value would make Ω
    NaN, which strict JSON cannot hold; evaluate refuses the column instead."""
    real = independent_table(300, seed=1)
    real.columns["amount"][:2] = [1.7e308, -1.7e308]
    real_path, syn_path = workspace["tmp"] / "wide.csv", workspace["tmp"] / "wide_syn.csv"
    schema_path, out = workspace["tmp"] / "wide.json", workspace["tmp"] / "r.json"
    write_csv(real_path, real)
    write_csv(syn_path, independent_table(200, seed=2))
    real.schema.save(schema_path)
    assert cli.main(["evaluate", "--real", str(real_path), "--syn", str(syn_path),
                     "--schema", str(schema_path), "--n-attacks", "50",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "'amount'" in err
    assert not out.exists()


@pytest.mark.parametrize("setting", ["schema", "dataset"])
def test_cli_prepare_with_a_missing_input_file_exits_1_naming_it(workspace, capsys, setting):
    path = _write_cfg(workspace, _fast_config(workspace), "missing_input.json")
    missing = str(workspace["tmp"] / "missing.file")
    assert cli.main(["prepare", "-c", path, "--set", f"{setting}={missing}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and repr(missing) in err


def test_cli_prepare_names_its_output_directory_without_a_trailing_slash(workspace, capsys):
    path = _write_cfg(workspace, _fast_config(workspace), "slash.json")
    out_dir = os.path.join(workspace["real"], "run")
    assert cli.main(["prepare", "-c", path, "--set", f"output_dir={out_dir}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(out_dir) in err


def test_cli_evaluate_of_a_one_row_synthetic_table_skips_utility(workspace, capsys):
    """One synthetic row trains no classifier: utility is skipped for its one
    class, and the rest of the report is scored."""
    syn = str(workspace["tmp"] / "one_row.csv")
    write_csv(syn, workspace["table"].select([0]))
    assert cli.main(["evaluate", "--real", workspace["real"], "--syn", syn,
                     "--schema", workspace["schema"], "--n-attacks", "5"]) == 0
    out = capsys.readouterr().out
    assert "utility   (synthetic training rows have one class; skipped)" in out
    assert "privacy   risk" in out


# ---------------------------------------------------------------------------
# Run files


def _written_by(*commands):
    return {name for name, (command, _) in experiment.RUN_FILES.items() if command in commands}


def _files_under(root):
    return {os.path.relpath(os.path.join(where, name), root)
            for where, _, names in os.walk(root) for name in names}


def test_each_stage_writes_exactly_its_run_files(workspace):
    """Each stage adds the RUN_FILES entries of the command that writes them and
    nothing else, so a file a run writes must be declared before it can exist.
    ``run_pipeline`` is a sweep cell's body: it writes the report, and the
    sweep its results beside the cells."""
    cfg = _fast_config(workspace, out="files", n_rows=30, n_attacks=8)
    staged = cfg.replace(output_dir=str(workspace["tmp"] / "files_staged"))
    cell = {*_written_by("prepare", "train", "generate"), experiment.REPORT_FILE}
    stages = [
        (lambda: cmd_prepare(staged), staged, _written_by("prepare")),
        (lambda: cmd_train(staged, stop_after_round=1), staged, _written_by("train")),
        (lambda: run_pipeline(cfg), cfg, cell),
        (lambda: cmd_sweep(cfg.replace(sweep={"seed": [0]})), cfg,
         {experiment.SWEEP_RESULTS_FILE} | {os.path.join("sweep", "seed=0", name)
                                            for name in cell}),
    ]
    for run, config, added in stages:
        root = config.resolved_output_dir()
        before = _files_under(root)  # empty before the directory exists
        run()
        assert _files_under(root) - before == added
    for root in (cfg.resolved_output_dir(), staged.resolved_output_dir()):
        assert {os.path.basename(path) for path in _files_under(root)} <= set(
            experiment.RUN_FILES)


@pytest.mark.parametrize("stage, argv, missing, command", [
    (None, ["train"], "pipeline.json", "prepare"),
    ("prepare", ["train", "--resume"], "checkpoint.npz", "train"),
    ("prepare", ["generate"], "checkpoint.npz", "train"),
    ("prepare", ["generate", "--checkpoint", "{tmp}/elsewhere.npz"], "elsewhere.npz", "train"),
], ids=["train-before-prepare", "resume-without-checkpoint", "generate-without-checkpoint",
        "generate-of-a-missing-checkpoint-flag"])
def test_cli_missing_run_file_names_the_command_that_writes_it(workspace, capsys, stage,
                                                                argv, missing, command):
    cfg = _fast_config(workspace, out="missing_run_file")
    path = _write_cfg(workspace, cfg, "missing_run_file.json")
    if stage:
        assert cli.main([stage, "-c", path]) == 0
    capsys.readouterr()
    flags = [arg.format(tmp=workspace["tmp"]) for arg in argv[1:]]
    assert cli.main([argv[0], "-c", path, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: missing ") and err.count("\n") == 1
    assert err.endswith(f"{missing}'; run {command} first\n")


def test_cli_evaluate_of_a_cell_over_the_csv_field_limit_exits_1_naming_the_file(
        workspace, capsys):
    """The csv module's 131,072-character cell limit is kept: a longer cell is
    one error line naming the file, not a traceback."""
    syn = workspace["tmp"] / "big.csv"
    header, first = open(workspace["real"], encoding="utf-8").read().splitlines()[:2]
    syn.write_text(f"{header}\n\"{'x' * 200_000}\"{first[first.index(','):]}\n",
                   encoding="utf-8")
    assert cli.main(["evaluate", "--real", workspace["real"], "--syn", str(syn),
                     "--schema", workspace["schema"]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(str(syn)) in err and "field larger than field limit" in err


REPORT = {"fidelity": {"omega": 0.5, "omega_col": 0.5, "omega_row": None,
                       "per_column": {"x": 0.5}},
          "utility": {"phi": 0.5, "majority_rate": 0.5, "accuracies": {"lr": 0.5},
                      "skipped": []},
          "privacy": {"pi": 0.1, "protection": 0.9,
                      "singling_out": {"risk": 0.1, "ci": [0.0, 0.2]},
                      "linkability": {"risk": 0.1}, "inference": {"risk": 0.1}}}


def test_cli_report_renders_a_minimal_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(REPORT))
    assert cli.main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "  column x: 0.5000" in out and "  lr: 0.5000" in out


@pytest.mark.parametrize("value", [[0.5], "0.5", 0.5], ids=["array", "string", "number"])
@pytest.mark.parametrize("section, key", [("fidelity", "per_column"),
                                          ("utility", "accuracies")])
def test_cli_report_whose_score_table_is_not_an_object_exits_1_naming_it(
        tmp_path, capsys, section, key, value):
    report = json.loads(json.dumps(REPORT))
    report[section][key] = value
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert cli.main(["report", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(str(path)) in err and key in err
