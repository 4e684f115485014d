"""Compare what two source trees write for one benchmark workload.

Run from anywhere:

    python3 tools/compare_outputs.py OLD_TREE NEW_TREE --workload generate_score --seed 101 102 103

Each tree runs the workload's stages (set-up, train, generate and, where the
workload scores, evaluate) in its own subprocess, importing its own
``src/fedsynth`` and its own ``perfbench/workloads.py`` for the workload's
inputs and config, with BLAS on one thread as in the benchmark. The script
then prints:

- whether ``pipeline.json``, ``partitions.json``, ``partition_summary.json``
  and ``audit.jsonl`` are byte-identical, and whether the manifest's
  per-client ε are equal;
- for ``checkpoint.npz``, each tree's file size in bytes, whether each
  ``.npy`` member is byte-identical, and which top-level keys of its
  ``meta.json`` differ (a config change moves only ``config_digest``); when
  ``clients`` is one of them, also which fields of the clients' entries
  differ, such as ``adam_t``;
- for ``synthetic.csv``, per column, the categorical cells that differ and
  the numeric cells that moved, with the largest relative move
  |new - old| / max(|old|, |new|);
- every number in ``report.json`` that differs, with its delta, and Ω, Φ
  and Π either way;
- one row per tree of its process's peak resident memory after its imports
  and after each stage, so a memory change shows which stage sets each
  tree's peak.

With several seeds it compares each seed in turn, then, for a workload that
scores, prints one Ω/Φ/Π row per seed for each tree and each tree's median,
so a change that moves outputs by design shows its spread against the seed
spread.

The last line is the verdict over all seeds: ``outputs identical``, or
``outputs DIFFERENT`` with the count of items that differ. The items are
each of the four files above, each checkpoint member, each ``meta.json`` key,
the manifest's ε, ``synthetic.csv`` and ``report.json``; peak RSS is
reported, not judged. As with ``cmp``, the exit status is 0 when the outputs
are identical and 1 when they differ.

Outputs go to ``--work`` (kept) or to a temporary directory (removed).

The files compared are named here, in ``FILES`` and ``compare``, not read
from ``experiment.RUN_FILES``: the two trees may be of versions whose
tables differ, and the list must not move with either. Every run file that
a workload writes is on it, which ``tests/test_compare_outputs.py`` checks
against ``RUN_FILES``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import zipfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
FILES = ("pipeline.json", "partitions.json", "partition_summary.json", "audit.jsonl")
HEADLINE = (("fidelity", "omega"), ("utility", "phi"), ("privacy", "pi"))
RSS_FILE = "peak_rss.json"
META_KEYS = "  meta.json keys that differ: "
STAGES = ("import", "setup", "train", "generate", "evaluate")


def _peak_rss_mb() -> float:
    """This process's peak resident memory in MB.

    Linux's VmHWM where it exists: ``ru_maxrss`` survives fork and exec, so a
    child's would start at this script's own peak, which grows as it reads
    the trees' checkpoints.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_stages(tree: str, workload: str, seed: int, work: str) -> None:
    """The workload's stages on ``tree``'s code. Outputs land in ``work/run``,
    and the peak RSS after the imports and after each stage in
    ``work/peak_rss.json``."""
    tree = os.path.abspath(tree)
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    from fedsynth import experiment
    from workloads import WORKLOADS

    rss = {"import": _peak_rss_mb()}
    spec = WORKLOADS[workload]
    dataset = os.path.join(work, "data.csv")
    schema = os.path.join(work, "schema.json")
    table = spec.table(seed)
    experiment.write_csv(dataset, table)
    table.schema.save(schema)
    cfg = spec.config(seed, dataset, schema, os.path.join(work, "run"))
    experiment.cmd_prepare(cfg)
    rss["setup"] = _peak_rss_mb()
    experiment.cmd_train(cfg)
    rss["train"] = _peak_rss_mb()
    syn = experiment.cmd_generate(cfg)
    rss["generate"] = _peak_rss_mb()
    if spec.evaluates:
        experiment.cmd_evaluate(
            dataset, syn, schema, seed=cfg.seeds.attack, n_attacks=cfg.n_attacks,
            test_fraction=cfg.test_fraction,
            out_path=os.path.join(work, "run", experiment.REPORT_FILE),
            metadata={"config_digest": cfg.digest})
        rss["evaluate"] = _peak_rss_mb()
    with open(os.path.join(work, RSS_FILE), "w", encoding="utf-8") as fh:
        json.dump(rss, fh)


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
    os.makedirs(os.path.dirname(dest), exist_ok=True)
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


def _client_fields(old: list, new: list) -> list:
    """The fields that differ between the clients' ``meta.json`` entries, a
    client's entry on one side only counting all its fields."""
    fields = set()
    for a, b in itertools.zip_longest(old, new, fillvalue={}):
        fields |= set(a) ^ set(b)
        fields |= {key for key in set(a) & set(b) if a[key] != b[key]}
    return sorted(fields)


def compare_checkpoints(old_path: str, new_path: str) -> list:
    """Both checkpoints' sizes, one line per ``.npy`` member, then the
    differing meta keys and, if ``clients`` is one, the differing client fields."""
    sizes = [os.path.getsize(path) for path in (old_path, new_path)]
    lines = [f"  size: {sizes[0]} -> {sizes[1]} bytes"]
    with zipfile.ZipFile(old_path) as old, zipfile.ZipFile(new_path) as new:
        old_names, new_names = set(old.namelist()), set(new.namelist())
        for name in sorted((old_names | new_names) - {"meta.json"}):
            if name not in old_names or name not in new_names:
                side = "old" if name not in old_names else "new"
                lines.append(f"  {name}: missing from {side}")
            else:
                same = old.read(name) == new.read(name)
                lines.append(f"  {name}: {'identical' if same else 'DIFFERENT'}")
        metas = [json.loads(z.read("meta.json")) for z in (old, new)]
    keys = sorted(k for k in set(metas[0]) | set(metas[1])
                  if metas[0].get(k) != metas[1].get(k))
    lines.append(f"{META_KEYS}{', '.join(keys) or 'none'}")
    if "clients" in keys:
        fields = _client_fields(metas[0].get("clients", []), metas[1].get("clients", []))
        lines.append(f"  meta.json client fields that differ: {', '.join(fields)}")
    return lines


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


def _headline(report: dict) -> list:
    return [report[section].get(key) for section, key in HEADLINE]


def _cells(values: list) -> str:
    return " ".join(f"{'n/a' if v is None else f'{v:.4f}':>8}" for v in values)


def headline_table(reports: dict) -> list:
    """One Ω/Φ/Π row per seed for each tree, then each tree's median.

    ``reports`` maps seed -> {"old": report, "new": report}; a median over a
    metric that some report lacks (Φ without a target column) is n/a.
    """
    lines = [f"{'seed':>6} {'tree':>4} " + " ".join(f"{key:>8}" for _, key in HEADLINE)]
    for seed, pair in reports.items():
        for side in ("old", "new"):
            lines.append(f"{seed:>6} {side:>4} {_cells(_headline(pair[side]))}")
    for side in ("old", "new"):
        columns = zip(*(_headline(pair[side]) for pair in reports.values()))
        medians = [None if None in col else statistics.median(col) for col in columns]
        lines.append(f"{'median':>6} {side:>4} {_cells(medians)}")
    return lines


def peak_rss_table(rss: dict) -> list:
    """One row per tree of its peak RSS in MB after each of STAGES.

    ``rss`` maps "old"/"new" to a tree's RSS_FILE contents; a stage the
    workload does not run is n/a.
    """
    lines = [f"{'peak RSS MB after':>17} " + " ".join(f"{stage:>8}" for stage in STAGES)]
    for side in ("old", "new"):
        cells = " ".join(f"{rss[side][stage]:8.1f}" if stage in rss[side] else f"{'n/a':>8}"
                         for stage in STAGES)
        lines.append(f"{side:>17} {cells}")
    return lines


def _same_file(old_path: str, new_path: str) -> str:
    return "identical" if _sha256(old_path) == _sha256(new_path) else "DIFFERENT"


def compare(old_run: str, new_run: str, schema: dict) -> tuple:
    """Lines describing how two runs' outputs differ, and the count of
    items that differ."""
    lines, verdicts = [], []
    for name in FILES:
        verdicts.append(_same_file(os.path.join(old_run, name), os.path.join(new_run, name)))
        lines.append(f"{name}: {verdicts[-1]}")
    checkpoint = compare_checkpoints(os.path.join(old_run, "checkpoint.npz"),
                                     os.path.join(new_run, "checkpoint.npz"))
    lines += ["checkpoint.npz:"] + checkpoint
    meta_at = next(i for i, line in enumerate(checkpoint) if line.startswith(META_KEYS))
    verdicts += [line.rsplit(": ", 1)[1] for line in checkpoint[1:meta_at]]
    meta_keys = checkpoint[meta_at][len(META_KEYS):]
    verdicts += [] if meta_keys == "none" else ["DIFFERENT"] * len(meta_keys.split(", "))
    eps = [_read_json(os.path.join(run, "manifest.json"))["epsilons"]
           for run in (old_run, new_run)]
    verdicts.append("identical" if eps[0] == eps[1] else "DIFFERENT")
    lines.append(f"manifest epsilons: {verdicts[-1]} {eps[0]} vs {eps[1]}")
    syn = [os.path.join(run, "synthetic.csv") for run in (old_run, new_run)]
    verdicts.append(_same_file(*syn))
    lines.append(f"synthetic.csv: {verdicts[-1]}")
    lines += compare_csv(*syn, schema)
    report = [os.path.join(run, "report.json") for run in (old_run, new_run)]
    if all(os.path.exists(path) for path in report):
        verdicts.append(_same_file(*report))
        lines.append(f"report.json: {verdicts[-1]}")
        lines += compare_reports(_read_json(report[0]), _read_json(report[1]))
    return lines, sum(verdict != "identical" for verdict in verdicts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    parser.add_argument("--work", default=None,
                        help="directory for both trees' outputs (kept); "
                             "default: a temporary directory, removed")
    args = parser.parse_args(argv)
    work = args.work or tempfile.mkdtemp(prefix="compare_outputs_")
    reports, differing = {}, 0
    try:
        for seed in args.seed:
            sides = {}
            for side, tree in (("old", args.old_tree), ("new", args.new_tree)):
                sides[side] = os.path.join(work, f"seed{seed}", side)
                _run_tree(tree, args.workload, seed, os.path.join(work, "stage"),
                          sides[side])
            if _sha256(os.path.join(sides["old"], "data.csv")) != _sha256(
                    os.path.join(sides["new"], "data.csv")):
                print("note: the trees generated different input tables")
            schema = _read_json(os.path.join(sides["old"], "schema.json"))
            print(f"{args.workload} seed {seed}")
            lines, count = compare(os.path.join(sides["old"], "run"),
                                   os.path.join(sides["new"], "run"), schema)
            differing += count
            for line in lines:
                print(line)
            rss = {side: _read_json(os.path.join(sides[side], RSS_FILE)) for side in sides}
            for line in peak_rss_table(rss):
                print(line)
            paths = {side: os.path.join(sides[side], "run", "report.json") for side in sides}
            if all(os.path.exists(path) for path in paths.values()):
                reports[seed] = {side: _read_json(path) for side, path in paths.items()}
        if reports:
            print(f"{args.workload} Ω/Φ/Π by seed")
            for line in headline_table(reports):
                print(line)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    print(f"outputs DIFFERENT: {differing} items differ" if differing
          else "outputs identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
