"""Compare what two source trees write for one benchmark workload.

Run from anywhere:

    python3 tools/compare_outputs.py OLD_TREE NEW_TREE --workload generate_score --seed 101

Each tree runs the workload's stages (set-up, train, generate and, where the
workload scores, evaluate) in its own subprocess, importing its own
``src/fedsynth`` and its own ``perfbench/workloads.py`` for the workload's
inputs and config, with BLAS on one thread as in the benchmark. The script
then prints:

- whether ``pipeline.json``, ``checkpoint.npz`` and ``audit.jsonl`` are
  byte-identical, and whether the manifest's per-client ε are equal;
- for ``synthetic.csv``, per column, the categorical cells that differ and
  the numeric cells that moved, with the largest relative move
  |new - old| / max(|old|, |new|);
- every number in ``report.json`` that differs, with its delta, and Ω, Φ
  and Π either way.

Outputs go to ``--work`` (kept) or to a temporary directory (removed).
Exit status is 0 once both trees ran, whatever the comparison found.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
FILES = ("pipeline.json", "checkpoint.npz", "audit.jsonl")
HEADLINE = (("fidelity", "omega"), ("utility", "phi"), ("privacy", "pi"))


def run_stages(tree: str, workload: str, seed: int, work: str) -> None:
    """The workload's stages on ``tree``'s code; outputs land in ``work/run``."""
    tree = os.path.abspath(tree)
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    from fedsynth import experiment
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    dataset = os.path.join(work, "data.csv")
    schema = os.path.join(work, "schema.json")
    table = spec.table(seed)
    experiment.write_csv(dataset, table)
    table.schema.save(schema)
    cfg = spec.config(seed, dataset, schema, os.path.join(work, "run"))
    experiment.cmd_prepare(cfg)
    experiment.cmd_train(cfg)
    syn = experiment.cmd_generate(cfg)
    if spec.evaluates:
        experiment.cmd_evaluate(
            dataset, syn, schema, seed=cfg.seeds.attack, n_attacks=cfg.n_attacks,
            test_fraction=cfg.test_fraction,
            out_path=os.path.join(work, "run", experiment.REPORT_FILE),
            metadata={"config_digest": cfg.digest})


def _run_tree(tree: str, workload: str, seed: int, work: str, dest: str) -> None:
    """run_stages in a subprocess, then move its outputs to ``dest``.

    Both trees run in the same ``work`` path, since the config digest that
    checkpoints and reports carry includes the input and output paths.
    """
    shutil.rmtree(dest, ignore_errors=True)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ, PYTHONPATH=TOOLS)
    env.pop("FEDSYNTH_OUTPUT_ROOT", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    code = ("import sys, compare_outputs as c; "
            "c.run_stages(sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4])")
    subprocess.run([sys.executable, "-c", code, tree, workload, str(seed), work],
                   env=env, check=True)
    os.replace(work, dest)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rows(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _relative_move(old: float, new: float) -> float:
    scale = max(abs(old), abs(new))
    return abs(new - old) / scale if scale else 0.0


def compare_csv(old_path: str, new_path: str, schema: dict) -> list:
    """Lines describing how the cells of two CSVs of one schema differ."""
    old, new = _rows(old_path), _rows(new_path)
    if old[0] != new[0] or len(old) != len(new):
        return [f"  shapes differ: {len(old) - 1} vs {len(new) - 1} rows, "
                f"header {old[0]} vs {new[0]}"]
    kinds = {c["name"]: c["kind"] for c in schema["columns"]}
    lines, flips, moved, worst = [], 0, 0, (0.0, "")
    for j, name in enumerate(old[0]):
        pairs = [(a[j], b[j]) for a, b in zip(old[1:], new[1:])]
        if kinds[name] == "numeric":
            moves = [_relative_move(float(a), float(b)) for a, b in pairs if a != b]
            moved += len(moves)
            if moves:
                lines.append(f"  {name}: {len(moves)} of {len(pairs)} numeric cells "
                             f"moved, largest relative move {max(moves):.3g}")
                worst = max(worst, (max(moves), name))
        else:
            changed = sum(a != b for a, b in pairs)
            flips += changed
            if changed:
                lines.append(f"  {name}: {changed} of {len(pairs)} categorical cells differ")
    cells = (len(old) - 1) * len(old[0])
    summary = (f"  {flips} categorical flips, {moved} numeric cells moved of {cells} cells"
               + (f"; largest relative move {worst[0]:.3g} in {worst[1]}" if moved else ""))
    return [summary] + lines


def _numbers(obj, path=()):
    """(path, value) for every number in a JSON tree."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _numbers(obj[key], path + (key,))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _numbers(item, path + (str(i),))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path, obj


def compare_reports(old: dict, new: dict) -> list:
    """Ω, Φ, Π of both reports, then every other number that differs."""
    lines = []
    for section, key in HEADLINE:
        a, b = old[section].get(key), new[section].get(key)
        delta = f"{b - a:+.3g}" if a is not None and b is not None else "n/a"
        lines.append(f"  {section}.{key}: {a!r} -> {b!r} (delta {delta})")
    old_numbers, new_numbers = dict(_numbers(old)), dict(_numbers(new))
    for path in sorted(set(old_numbers) | set(new_numbers)):
        a, b = old_numbers.get(path), new_numbers.get(path)
        if a != b and path not in HEADLINE:
            delta = f"{b - a:+.3g}" if a is not None and b is not None else "n/a"
            lines.append(f"  {'.'.join(path)}: {a!r} -> {b!r} (delta {delta})")
    return lines


def compare(old_run: str, new_run: str, schema: dict) -> list:
    lines = []
    for name in FILES:
        same = _sha256(os.path.join(old_run, name)) == _sha256(os.path.join(new_run, name))
        lines.append(f"{name}: {'identical' if same else 'DIFFERENT'}")
    eps = [_read_json(os.path.join(run, "manifest.json"))["epsilons"]
           for run in (old_run, new_run)]
    lines.append(f"manifest epsilons: {'identical' if eps[0] == eps[1] else 'DIFFERENT'} "
                 f"{eps[0]} vs {eps[1]}")
    lines.append("synthetic.csv:")
    lines += compare_csv(os.path.join(old_run, "synthetic.csv"),
                         os.path.join(new_run, "synthetic.csv"), schema)
    report = [os.path.join(run, "report.json") for run in (old_run, new_run)]
    if all(os.path.exists(path) for path in report):
        lines.append("report.json:")
        lines += compare_reports(_read_json(report[0]), _read_json(report[1]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", default=None,
                        help="directory for both trees' outputs (kept); "
                             "default: a temporary directory, removed")
    args = parser.parse_args(argv)
    work = args.work or tempfile.mkdtemp(prefix="compare_outputs_")
    try:
        sides = {}
        for side, tree in (("old", args.old_tree), ("new", args.new_tree)):
            sides[side] = os.path.join(work, side)
            _run_tree(tree, args.workload, args.seed, os.path.join(work, "stage"),
                      sides[side])
        if _sha256(os.path.join(sides["old"], "data.csv")) != _sha256(
                os.path.join(sides["new"], "data.csv")):
            print("note: the trees generated different input tables")
        schema = _read_json(os.path.join(sides["old"], "schema.json"))
        print(f"{args.workload} seed {args.seed}")
        for line in compare(os.path.join(sides["old"], "run"),
                            os.path.join(sides["new"], "run"), schema):
            print(line)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
