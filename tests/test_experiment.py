import json
import math
import os

import numpy as np
import pytest

from fedsynth import cli, experiment
from fedsynth.data import load_csv, write_csv
from fedsynth.errors import CheckpointError, ValidationError
from fedsynth.experiment import (OUTPUT_ROOT_ENV, ExperimentConfig, Seeds,
                                 cmd_evaluate, cmd_generate, cmd_prepare,
                                 cmd_sweep, cmd_train, desk_preset,
                                 run_pipeline)
from fedsynth.fixtures import gaussian_mixture_table
from fedsynth.store import read_json


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
