import json
import math
import os
import struct
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
from fedsynth.fixtures import gaussian_mixture_table
from fedsynth.nn import DenoiserParams, forward, init_denoiser
from fedsynth.store import load_arrays, read_json, save_arrays


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


def test_resume_is_bit_exact(workspace, monkeypatch):
    # same config both times (relative output dir), rooted in two different
    # places via the output-root env var, so checkpoint metadata agrees too
    cfg = _fast_config(workspace, **{"federation.rounds": 4})
    cfg = cfg.replace(output_dir="run")
    roots = {k: str(workspace["tmp"] / k) for k in ("straight", "staged")}

    monkeypatch.setenv(OUTPUT_ROOT_ENV, roots["straight"])
    cmd_prepare(cfg)
    cmd_train(cfg)

    monkeypatch.setenv(OUTPUT_ROOT_ENV, roots["staged"])
    cmd_prepare(cfg)
    cmd_train(cfg, stop_after_round=2)
    cmd_train(cfg, resume=True)

    for fname in ("checkpoint.npz", "audit.jsonl"):
        blob_a = open(os.path.join(roots["straight"], "run", fname), "rb").read()
        blob_b = open(os.path.join(roots["staged"], "run", fname), "rb").read()
        assert blob_a == blob_b, fname


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
    alt = cmd_generate(cfg, n_rows=7, seed=99,
                       out_path=str(workspace["tmp"] / "alt.csv"))
    syn = load_csv(alt, workspace["table"].schema)
    assert syn.n_rows == 7
    base = cmd_generate(cfg, n_rows=7,
                        out_path=str(workspace["tmp"] / "base.csv"))
    assert open(alt, "rb").read() != open(base, "rb").read()


@pytest.fixture()
def dp_run(workspace):
    """A trained run with accounting on, so its checkpoint holds accountants."""
    cfg = _fast_config(workspace, out="dp_run",
                       **{"dp.epsilon": 50.0, "dp.noise_multiplier": 1.0})
    cmd_prepare(cfg)
    cmd_train(cfg)
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
    arrays["global_flat"], meta["manifest"] = wider.flatten(), wider.manifest()


@pytest.mark.parametrize("edit", [_foreign_format, _other_pipeline, _wider_model])
def test_generate_rejects_checkpoint_it_cannot_sample(dp_run, edit):
    arrays, meta = load_arrays(_checkpoint(dp_run))
    edit(arrays, meta)
    edited = os.path.join(dp_run.resolved_output_dir(), "edited.npz")
    save_arrays(edited, arrays, meta)
    with pytest.raises(CheckpointError):
        cmd_generate(dp_run, checkpoint_path=edited)


def test_generate_rejects_nonpositive_row_count(dp_run):
    for n_rows in (0, -3):  # before any layer buffer is allocated
        with pytest.raises(ValidationError):
            cmd_generate(dp_run, n_rows=n_rows)


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


def test_generate_checks_crc_of_members_it_does_not_decode(dp_run):
    path = _checkpoint(dp_run)
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
        cmd_generate(dp_run)


def test_generate_rebuilds_no_accountant(dp_run, monkeypatch):
    calls = []
    account_step = RdpAccountant.account_step

    def spy(self, *args, **kwargs):
        calls.append(args)
        return account_step(self, *args, **kwargs)

    monkeypatch.setattr(RdpAccountant, "account_step", spy)
    cmd_generate(dp_run)
    assert calls == []
    experiment.load_checkpoint(_checkpoint(dp_run))  # the spy does see a rebuild
    assert calls


def test_generate_feeds_the_benchmark_probes(dp_run, monkeypatch):
    """The benchmark wraps experiment.forward, reading its second argument
    as the batch (the chain's float64 x), and diffusion.p_sample_step; each
    runs once per step."""
    forward_args, steps = [], []
    forward, p_sample_step = experiment.forward, diffusion.p_sample_step

    def counting_forward(*args, **kwargs):
        forward_args.append((args[1].shape, args[1].dtype))
        return forward(*args, **kwargs)

    def counting_step(*args, **kwargs):
        steps.append(1)
        return p_sample_step(*args, **kwargs)

    monkeypatch.setattr(experiment, "forward", counting_forward)
    monkeypatch.setattr(diffusion, "p_sample_step", counting_step)
    cmd_generate(dp_run)
    d_enc = load_arrays(_checkpoint(dp_run))[1]["manifest"]["weights"][-1][1]
    timesteps = dp_run.diffusion.timesteps
    assert forward_args == [((dp_run.n_rows, d_enc), np.float64)] * timesteps
    assert len(steps) == timesteps


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


def test_sweep_rejects_unknown_axis(workspace):
    cfg = _fast_config(workspace).replace(sweep={"warp": [1]})
    with pytest.raises(ValidationError):
        cmd_sweep(cfg)


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
    assert "seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("time_dim", [-2, 0, 3])
def test_config_rejects_time_dim_not_positive_even(workspace, time_dim):
    with pytest.raises(ValidationError, match="time_dim"):
        _fast_config(workspace, **{"model.time_dim": time_dim})


@pytest.mark.parametrize("time_dim", ["-2", "0", "3"])
def test_cli_bad_time_dim_exits_1(workspace, capsys, time_dim):
    path = _write_cfg(workspace, _fast_config(workspace), "time_dim.json")
    assert cli.main(["prepare", "-c", path, "-s", f"model.time_dim={time_dim}"]) == 1
    assert "time_dim" in capsys.readouterr().err


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
