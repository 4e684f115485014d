import json
import os
import pathlib
import subprocess
import sys

import numpy as np

from fedsynth.store import save_arrays

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools"))

import compare_outputs  # noqa: E402

SCHEMA = {"columns": [{"name": "x", "kind": "numeric"},
                      {"name": "c", "kind": "categorical"}]}


def _write(path, rows):
    path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    return str(path)


def test_compare_csv_counts_flips_and_the_largest_relative_move(tmp_path):
    old = _write(tmp_path / "old.csv", [["x", "c"], ["1.0", "a"], ["-2.0", "b"], ["0.0", "a"]])
    new = _write(tmp_path / "new.csv", [["x", "c"], ["1.0", "b"], ["-2.002", "b"], ["0.0", "a"]])
    lines = compare_outputs.compare_csv(old, new, SCHEMA)
    assert lines[0].startswith("  1 categorical flips, 1 numeric cells moved of 6 cells")
    assert "largest relative move 0.000999 in x" in lines[0]
    assert "  c: 1 of 3 categorical cells differ" in lines


def test_compare_csv_identical_and_reshaped(tmp_path):
    rows = [["x", "c"], ["1.0", "a"]]
    same = compare_outputs.compare_csv(_write(tmp_path / "a.csv", rows),
                                       _write(tmp_path / "b.csv", rows), SCHEMA)
    assert same == ["  0 categorical flips, 0 numeric cells moved of 2 cells"]
    longer = _write(tmp_path / "c.csv", rows + [["2.0", "b"]])
    assert "shapes differ" in compare_outputs.compare_csv(
        str(tmp_path / "a.csv"), longer, SCHEMA)[0]


def test_compare_reports_lists_headline_and_changed_numbers():
    old = {"fidelity": {"omega": 0.5, "per_column": {"x": 0.25, "c": 0.75}},
           "utility": {"phi": None}, "privacy": {"pi": 0.125}, "metadata": {"n": 3}}
    new = {"fidelity": {"omega": 0.5, "per_column": {"x": 0.5, "c": 0.75}},
           "utility": {"phi": None}, "privacy": {"pi": 0.125}, "metadata": {"n": 3}}
    lines = compare_outputs.compare_reports(old, new)
    assert lines == ["  fidelity.omega: 0.5 -> 0.5 (delta +0)",
                     "  utility.phi: None -> None (delta n/a)",
                     "  privacy.pi: 0.125 -> 0.125 (delta +0)",
                     "  fidelity.per_column.x: 0.25 -> 0.5 (delta +0.25)"]


def test_compare_checkpoints_reports_members_and_meta_keys(tmp_path):
    arrays = {"global_flat": np.arange(4.0), "server_m": np.zeros(4)}
    meta = {"format": "fedsynth-checkpoint-v1", "round": 2, "config_digest": "a" * 64}
    old, new, other = (str(tmp_path / name) for name in ("old.npz", "new.npz", "other.npz"))
    save_arrays(old, arrays, meta)
    save_arrays(new, arrays, dict(meta, config_digest="b" * 64))
    size = os.path.getsize(old)
    assert os.path.getsize(new) == size
    assert compare_outputs.compare_checkpoints(old, new) == [
        f"  size: {size} -> {size} bytes",
        "  global_flat.npy: identical", "  server_m.npy: identical",
        "  meta.json keys that differ: config_digest"]
    save_arrays(other, {"global_flat": np.arange(4.0) + 1.0}, meta)
    smaller = os.path.getsize(other)
    assert smaller < size
    assert compare_outputs.compare_checkpoints(old, other) == [
        f"  size: {size} -> {smaller} bytes",
        "  global_flat.npy: DIFFERENT", "  server_m.npy: missing from new",
        "  meta.json keys that differ: none"]


def test_peak_rss_table_marks_stages_a_workload_skips():
    rss = {"old": {"import": 55.5, "setup": 60.0, "train": 70.25, "generate": 79.6},
           "new": {"import": 35.2, "setup": 40.0, "train": 45.0, "generate": 48.1}}
    assert compare_outputs.peak_rss_table(rss) == [
        "peak RSS MB after   import    setup    train generate evaluate",
        "              old     55.5     60.0     70.2     79.6      n/a",
        "              new     35.2     40.0     45.0     48.1      n/a"]


def test_peak_rss_is_the_run_s_own_not_its_parent_s():
    """A child's ru_maxrss starts at its parent's peak; the tool's does not."""
    ballast = np.ones(64 * 2 ** 17)  # 64 MB resident in this process
    code = "import compare_outputs as c; print(c._peak_rss_mb())"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(compare_outputs.__file__))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert 0.0 < float(out) < ballast.nbytes / 2 ** 20


def _report(omega, phi, pi):
    return {"fidelity": {"omega": omega}, "utility": {"phi": phi}, "privacy": {"pi": pi}}


def test_headline_table_has_a_row_per_seed_and_tree_then_medians():
    reports = {101: {"old": _report(0.5, 0.25, 0.125), "new": _report(0.75, None, 0.25)},
               102: {"old": _report(0.25, 0.5, 0.25), "new": _report(0.5, 0.5, 0.5)},
               103: {"old": _report(1.0, 0.75, 0.0), "new": _report(0.25, 0.25, 0.0)}}
    assert compare_outputs.headline_table(reports) == [
        "  seed tree    omega      phi       pi",
        "   101  old   0.5000   0.2500   0.1250",
        "   101  new   0.7500      n/a   0.2500",
        "   102  old   0.2500   0.5000   0.2500",
        "   102  new   0.5000   0.5000   0.5000",
        "   103  old   1.0000   0.7500   0.0000",
        "   103  new   0.2500   0.2500   0.0000",
        "median  old   0.5000   0.5000   0.1250",
        "median  new   0.5000      n/a   0.2500"]


def _fake_subprocess_run(new_omega_shift):
    """Stands in for a tree's run: its omega is the seed over 1000, plus
    ``new_omega_shift`` on the new tree, and its peak RSS after evaluate is
    the seed, less 40 MB on the new tree; every other output is the same."""
    def fake_subprocess_run(cmd, env, check):
        tree, workload, seed, work = cmd[-4:]
        run = pathlib.Path(work) / "run"
        run.mkdir()
        for path in (run.parent / "data.csv", run / "synthetic.csv"):
            _write(path, [["x", "c"], ["1.0", "a"]])
        (run.parent / "schema.json").write_text(json.dumps(SCHEMA))
        for name in compare_outputs.FILES:
            (run / name).write_text("same")
        (run / "manifest.json").write_text(json.dumps({"epsilons": [1.0]}))
        save_arrays(str(run / "checkpoint.npz"), {"global_flat": np.zeros(2)}, {"format": "x"})
        omega = int(seed) / 1000 + (new_omega_shift if tree == "NEW" else 0.0)
        (run / "report.json").write_text(json.dumps(_report(omega, 0.5, 0.25)))
        rss = {"import": 30.0, "setup": 40.0, "train": 50.0, "generate": 60.0,
               "evaluate": int(seed) - (40.0 if tree == "NEW" else 0.0)}
        (run.parent / compare_outputs.RSS_FILE).write_text(json.dumps(rss))
    return fake_subprocess_run


def test_main_compares_each_seed_then_prints_the_table(tmp_path, monkeypatch, capsys):
    """Each seed runs both trees (the subprocess is stubbed, the new tree's
    omega 0.1 higher) and prints their peak-RSS rows, before the one Ω/Φ/Π
    table and the verdict: two reports differ, so the status is 1."""
    monkeypatch.setattr(compare_outputs.subprocess, "run", _fake_subprocess_run(0.1))
    argv = ["OLD", "NEW", "--workload", "w", "--seed", "101", "102", "--work", str(tmp_path)]
    assert compare_outputs.main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("w seed")] == ["w seed 101", "w seed 102"]
    for name in ("pipeline.json", "audit.jsonl", "synthetic.csv"):
        assert out.count(f"{name}: identical") == 2
    assert out.count("report.json: DIFFERENT") == 2
    first = out.index("peak RSS MB after   import    setup    train generate evaluate")
    assert out[first + 1:first + 3] == [
        "              old     30.0     40.0     50.0     60.0    101.0",
        "              new     30.0     40.0     50.0     60.0     61.0"]
    assert out[out.index("w Ω/Φ/Π by seed") + 1:] == [
        "  seed tree    omega      phi       pi",
        "   101  old   0.1010   0.5000   0.2500",
        "   101  new   0.2010   0.5000   0.2500",
        "   102  old   0.1020   0.5000   0.2500",
        "   102  new   0.2020   0.5000   0.2500",
        "median  old   0.1015   0.5000   0.2500",
        "median  new   0.2015   0.5000   0.2500",
        "outputs DIFFERENT: 2 items differ"]
    for seed in (101, 102):
        for side in ("old", "new"):
            assert (tmp_path / f"seed{seed}" / side / "run" / "report.json").exists()


def test_main_of_trees_writing_the_same_bytes_says_identical_and_exits_0(
        tmp_path, monkeypatch, capsys):
    """Peak RSS differs between the trees, and is not judged."""
    monkeypatch.setattr(compare_outputs.subprocess, "run", _fake_subprocess_run(0.0))
    argv = ["OLD", "NEW", "--workload", "w", "--seed", "101", "--work", str(tmp_path)]
    assert compare_outputs.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert "report.json: identical" in out and "DIFFERENT" not in "\n".join(out)
    assert out[-1] == "outputs identical"


def test_compare_counts_each_checkpoint_member_and_meta_key_that_differs(tmp_path):
    fake, runs = _fake_subprocess_run(0.0), []
    for tree in ("OLD", "NEW"):
        (tmp_path / tree).mkdir()
        fake([tree, "w", "101", str(tmp_path / tree)], env=None, check=True)
        runs.append(str(tmp_path / tree / "run"))
    save_arrays(os.path.join(runs[1], "checkpoint.npz"), {"global_flat": np.ones(2)},
                {"format": "y", "round": 1})
    lines, differing = compare_outputs.compare(*runs, SCHEMA)
    assert "  global_flat.npy: DIFFERENT" in lines
    assert "  meta.json keys that differ: format, round" in lines
    assert differing == 3


def test_compare_names_the_client_fields_that_differ_and_counts_clients_once(tmp_path):
    """Two client entries differ, in adam_t and in a field only one side has;
    the count still takes ``clients`` as one meta key."""
    fake, runs = _fake_subprocess_run(0.0), []
    clients = [{"client_id": 0, "adam_t": 3, "sigma": 1.0}, {"client_id": 1, "adam_t": 0}]
    for tree, entries in (("OLD", clients), ("NEW", [{"client_id": 0, "sigma": 1.0},
                                                     {"client_id": 1, "ledger": None}])):
        (tmp_path / tree).mkdir()
        fake([tree, "w", "101", str(tmp_path / tree)], env=None, check=True)
        runs.append(str(tmp_path / tree / "run"))
        save_arrays(os.path.join(runs[-1], "checkpoint.npz"), {"global_flat": np.zeros(2)},
                    {"format": "x", "clients": entries})
    lines, differing = compare_outputs.compare(*runs, SCHEMA)
    at = lines.index("  meta.json keys that differ: clients")
    assert lines[at + 1] == "  meta.json client fields that differ: adam_t, ledger"
    assert differing == 1


def _edit(text):
    return lambda path: pathlib.Path(path).write_text(text)


# One change to each run file that the tool compares, by file name.
EDITS = {**{name: _edit("other") for name in compare_outputs.FILES},
         "checkpoint.npz": lambda path: save_arrays(path, {"global_flat": np.ones(2)},
                                                    {"format": "x"}),
         "manifest.json": _edit(json.dumps({"epsilons": [2.0]})),
         "synthetic.csv": _edit("x,c\n2.0,a\n"),
         "report.json": _edit(json.dumps(_report(0.9, 0.5, 0.25)))}


def test_compare_sees_a_change_to_every_run_file_a_workload_writes(tmp_path):
    """Each ``RUN_FILES`` entry that a workload writes, changed alone, is an
    item that differs, so a run file added later cannot pass the rerun gate
    unseen: it fails here until the tool compares it. ``sweep_results.json``
    is the one exception, because no workload sweeps."""
    from fedsynth.experiment import RUN_FILES, SWEEP_RESULTS_FILE
    fake = _fake_subprocess_run(0.0)
    for name in sorted(set(RUN_FILES) - {SWEEP_RESULTS_FILE}):
        runs = []
        for tree in ("OLD", "NEW"):
            work = tmp_path / name / tree
            work.mkdir(parents=True)
            fake([tree, "w", "101", str(work)], env=None, check=True)
            runs.append(str(work / "run"))
        assert compare_outputs.compare(*runs, SCHEMA)[1] == 0
        EDITS[name](os.path.join(runs[1], name))
        assert compare_outputs.compare(*runs, SCHEMA)[1] >= 1, name
