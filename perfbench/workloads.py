"""The benchmark's workloads, their stage loop, checks and trace probes.

Every workload is a closed loop in one process: set-up, then train,
generate and (where the workload scores) evaluate, one after another,
repeated for the measuring window.
Equal seeds give equal inputs, so every repeat must write byte-identical
``checkpoint.npz``, ``synthetic.csv`` and ``report.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from fedsynth import (attacks, classifiers, data, diffusion, dp, experiment,
                      federation, metrics, nn)
from fedsynth.data import RawTable, TabularSchema
from fedsynth.dp import DpConfig
from fedsynth.experiment import ExperimentConfig, ModelConfig, Seeds, desk_preset
from fedsynth.federation import FedConfig
from fedsynth.fixtures import (INDEPENDENT_SCHEMA, gaussian_mixture_table,
                               independent_table)

from tracing import Tracer, tail

EPSILON = 5.0
MIN_REPEATS = 2

# The metrics a run prints, as (name, unit), in BENCHMARK.json's order.
# Per-layer values are per traced repeat unless the name says otherwise:
# clip_fraction is a ratio, round_s.* are per-round percentiles over all
# traced rounds and round_s.count is their number.
with open(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]

# Set-up is repeated until this much time has passed, and its time is the
# mean per set-up, so a ~30 ms set-up is not timed from a single call.
SETUP_WINDOW_S = 0.5


# ---------------------------------------------------------------------------
# Workloads


SCORE_SCHEMA = TabularSchema(columns=INDEPENDENT_SCHEMA.columns,
                             target_column="grade")


def score_table(n_rows: int, seed: int) -> RawTable:
    """``independent_table`` (40- and 12-level categoricals) with a target."""
    return RawTable(SCORE_SCHEMA, independent_table(n_rows, seed=seed).columns)


DESK = desk_preset()


@dataclass(frozen=True)
class Workload:
    name: str
    table_rows: int
    wide_table: bool          # score_table instead of gaussian_mixture_table
    model: ModelConfig
    federation: FedConfig
    dp: DpConfig
    partition: str
    syn_rows: int
    train_in_setup: bool = False   # training is set-up, not a timed stage
    evaluates: bool = True
    floors: tuple = ()             # (fidelity report key, lowest healthy value)

    def skips_layer(self, layer: str) -> bool:
        """True for a traced layer this workload does not reach."""
        if layer.startswith(("metrics.", "classifiers.", "attacks.")):
            return not self.evaluates
        if layer in ("dp.calibrate_sigma", "dp.epsilon_after"):
            return self.dp.noise_multiplier is not None
        return False

    def table(self, seed: int) -> RawTable:
        if self.wide_table:
            return score_table(self.table_rows, seed)
        return gaussian_mixture_table(self.table_rows, seed=seed)

    def config(self, seed: int, dataset: str, schema: str,
               output_dir: str) -> ExperimentConfig:
        return ExperimentConfig(
            dataset=dataset, schema=schema, output_dir=output_dir,
            partition=self.partition, n_rows=self.syn_rows,
            seeds=Seeds(model=seed, data=seed + 1, attack=seed + 2),
            model=self.model, federation=self.federation, dp=self.dp)


WORKLOADS = {w.name: w for w in [
    Workload(
        name="desk_pipeline",
        table_rows=2000, wide_table=False, model=DESK.model,
        federation=dataclasses.replace(DESK.federation, rounds=10),
        # A fixed sigma: calibration's cost follows the non-IID shard sizes,
        # which change with the seed; generate_score measures calibration.
        dp=DpConfig(epsilon=EPSILON, noise_multiplier=1.0),
        partition="noniid", syn_rows=1000,
        floors=(("omega", 0.3), ("omega_col", 0.65))),
    Workload(
        # Every client each round, so aggregation and FedAdam touch all
        # parameters. server_lr 1.0 (the default) drives FedAdam to
        # non-finite samples at this width. Too few steps for a sample that
        # decodes to more than one class, so no evaluation.
        name="paper_width_train",
        table_rows=2000, wide_table=False, model=ModelConfig(),
        federation=FedConfig(n_clients=3, rounds=2, local_steps=1,
                             clients_per_round=3, strategy="fedadam",
                             server_lr=1e-3),
        dp=DpConfig(epsilon=EPSILON, noise_multiplier=1.0),
        partition="noniid", syn_rows=64, evaluates=False),
    Workload(
        name="generate_score",
        table_rows=4000, wide_table=True, model=DESK.model,
        federation=FedConfig(n_clients=2, rounds=12, local_steps=2),
        dp=DpConfig(epsilon=EPSILON), partition="iid", syn_rows=1500,
        train_in_setup=True),
]}

# ---------------------------------------------------------------------------
# Stage loop and checks


class StageFailed(Exception):
    """A stage raised, so the run cannot continue."""


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Run:
    """One workload at one seed: its files, repeats, checks and failure count."""

    def __init__(self, workload: Workload, seed: int, work_dir: str):
        self.workload = workload
        self.table = workload.table(seed)
        self.dataset = os.path.join(work_dir, "data.csv")
        self.schema = os.path.join(work_dir, "schema.json")
        self.out_dir = os.path.join(work_dir, "run")
        self.config = workload.config(seed, self.dataset, self.schema,
                                      self.out_dir)
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}

    def _stage(self, name: str, fn, check=None):
        """Time ``fn``; a raise or a failed check fails the operation."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise StageFailed(f"{name}: {type(exc).__name__}: {exc}") from exc
        elapsed = time.perf_counter() - start
        problems = check(result) if check is not None else []
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"check failed in {name}: {problem}", file=sys.stderr)
        return result, elapsed

    def _same_bytes(self, filename: str) -> list:
        digest = _sha256(os.path.join(self.out_dir, filename))
        first = self.digests.setdefault(filename, digest)
        return [] if digest == first else [f"{filename} differs from the first repeat"]

    def _setup(self) -> None:
        data.write_csv(self.dataset, self.table)
        self.table.schema.save(self.schema)
        experiment.cmd_prepare(self.config)

    def _train(self) -> list:
        """Train; returns the audit records of ``audit.jsonl``."""
        experiment.cmd_train(self.config)
        with open(os.path.join(self.out_dir, experiment.AUDIT_FILE)) as fh:
            return [json.loads(line) for line in fh]

    def _check_train(self, audit: list) -> list:
        """Every selected client spent within the target, others nothing."""
        manifest = experiment.read_json(
            os.path.join(self.out_dir, experiment.MANIFEST_FILE))
        fed, target = self.config.federation, self.config.dp.epsilon
        selected = {str(line["client"]) for line in audit}
        epsilons = manifest["epsilons"]
        problems = []
        if set(epsilons) != {str(cid) for cid in range(fed.n_clients)}:
            problems.append(f"manifest lists clients {sorted(epsilons)}")
        for cid, eps in sorted(epsilons.items()):
            if cid in selected and (eps is None or not eps <= target):
                problems.append(f"client {cid} trained but spent epsilon "
                                f"{eps}, target {target}")
            if cid not in selected and eps is not None:
                problems.append(f"client {cid} never trained but spent "
                                f"epsilon {eps}")
        if manifest["stopped_early"] or manifest["rounds_completed"] != fed.rounds:
            problems.append(f"training stopped after "
                            f"{manifest['rounds_completed']} of {fed.rounds} rounds")
        return problems + self._same_bytes(experiment.CHECKPOINT_FILE)

    def _check_generate(self, path: str) -> list:
        syn = data.load_csv(path, self.table.schema)
        problems = []
        if syn.n_rows != self.config.n_rows:
            problems.append(f"synthetic.csv has {syn.n_rows} rows, "
                            f"asked for {self.config.n_rows}")
        return problems + self._same_bytes(experiment.SYNTHETIC_FILE)

    def _evaluate(self):
        cfg = self.config
        return experiment.cmd_evaluate(
            cfg.dataset, os.path.join(self.out_dir, experiment.SYNTHETIC_FILE),
            cfg.schema, seed=cfg.seeds.attack, n_attacks=cfg.n_attacks,
            test_fraction=cfg.test_fraction,
            out_path=os.path.join(self.out_dir, experiment.REPORT_FILE),
            metadata={"config_digest": cfg.digest})

    def _check_evaluate(self, report) -> list:
        problems = [f"{name} = {value} outside [0, 1]"
                    for name, value in (("omega", report.omega),
                                        ("phi", report.phi),
                                        ("pi", report.privacy_risk))
                    if value is None or not 0.0 <= value <= 1.0]
        problems += [f"{key} {report.fidelity[key]:.4f} below floor {floor}"
                     for key, floor in self.workload.floors
                     if not report.fidelity[key] >= floor]
        return problems + self._same_bytes(experiment.REPORT_FILE)

    def _setups(self, window_s: float) -> float:
        """Set up until ``window_s`` has passed; returns the mean per set-up."""
        count, start = 0, time.perf_counter()
        while not count or time.perf_counter() - start < window_s:
            self._setup()
            count += 1
        return (time.perf_counter() - start) / count

    def repeat(self, setup_window_s: float) -> dict:
        """Set-up, then the timed stages; returns this repeat's record."""
        setup_s, _ = self._stage("setup", lambda: self._setups(setup_window_s))
        audit, train_s = self._stage("train", self._train, self._check_train)
        _, generate_s = self._stage(
            "generate", lambda: experiment.cmd_generate(self.config),
            self._check_generate)
        record = {"setup_s": setup_s, "train_s": train_s,
                  "steps": sum(line["steps"] for line in audit),
                  "generate_s": generate_s, "rows": self.config.n_rows}
        if self.workload.evaluates:
            report, record["evaluate_s"] = self._stage(
                "evaluate", self._evaluate, self._check_evaluate)
            record["omega"] = report.omega
            record["omega_col"] = report.fidelity["omega_col"]
        timed = generate_s + record.get("evaluate_s", 0.0)
        if self.workload.train_in_setup:
            record["setup_s"] += train_s
        else:
            timed += train_s
        record["pipeline_s"] = timed
        return record

    @staticmethod
    def end_to_end(records: list, peak_rss_mb: float) -> dict:
        """Medians over the repeats, keyed by END_TO_END name."""
        def med(fn):
            return statistics.median(fn(r) for r in records)
        return {
            "setup_s": med(lambda r: r["setup_s"]),
            "train_steps_per_s": med(lambda r: r["steps"] / r["train_s"]),
            "generate_rows_per_s": med(lambda r: r["rows"] / r["generate_s"]),
            "pipeline_s": med(lambda r: r["pipeline_s"]),
            "peak_rss_mb": peak_rss_mb,
        }

    def measure(self, seconds: float, trace: bool) -> dict:
        """Repeat the workload for ``seconds``; returns the metrics to print.

        With ``trace`` the repeats alternate untraced and traced, starting
        untraced; the traced ones give the per-layer metrics and the
        difference of the two medians of pipeline_s is the tracing overhead.
        """
        tracer = Tracer()
        untraced, traced = [], []

        def enough() -> bool:
            if trace:
                return bool(untraced) and bool(traced)
            return len(untraced) >= MIN_REPEATS

        # Start a repeat only while it should end inside the window.
        start = time.perf_counter()
        while not enough() or (time.perf_counter() - start) * (
                1 + 1 / (len(untraced) + len(traced))) <= seconds:
            tracing_now = trace and len(untraced) > len(traced)
            if tracing_now:
                install_probes(tracer)
            try:
                # One set-up per traced repeat keeps per-layer values per repeat.
                record = self.repeat(0.0 if tracing_now else SETUP_WINDOW_S)
            finally:
                tracer.restore()
            (traced if tracing_now else untraced).append(record)
            print(f"repeat {len(untraced) + len(traced)}"
                  f"{' traced' if tracing_now else ''}: "
                  + " ".join(f"{k}={v:.4f}" for k, v in record.items()
                             if isinstance(v, float)), flush=True)

        if not trace:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values, specs = self.end_to_end(untraced, peak_mb), END_TO_END
            if self.workload.evaluates:
                # Not in BENCHMARK.json: paper_width_train does not evaluate.
                for name, unit in (("evaluate_s", "s"), ("omega", "")):
                    value = statistics.median(r[name] for r in untraced)
                    print(f"{name:45s} {value:>16.6g} {unit} (median, not bounded)")
        else:
            overhead = (statistics.median(r["pipeline_s"] for r in traced)
                        - statistics.median(r["pipeline_s"] for r in untraced))
            values = layer_metrics(tracer, len(traced), overhead)
            specs = PER_LAYER
            missing = sorted(name for name, stat in tracer.stats.items()
                             if stat.calls == 0
                             and not self.workload.skips_layer(name))
            self.attempted += 1
            if missing:
                self.failed += 1
                print(f"check failed in trace: no calls recorded for {missing}",
                      file=sys.stderr)
        return {name: {"value": values[name], "unit": unit}
                for name, unit in specs}


# ---------------------------------------------------------------------------
# Trace probes


def _count_samples(stat, args, _kwargs, _result):
    stat.add("samples", len(args[1]))


def _count_clipped(stat, args, _kwargs, _result):
    grads, clip_norm = args[0], args[1]
    stat.add("clipped", sum(g.norm > clip_norm for g in grads))
    stat.add("grads", len(grads))


def _count_local_steps(stat, _args, _kwargs, result):
    stat.add("steps", result[1]["steps"])


def _count_file_bytes(stat, args, _kwargs, _result):
    stat.add("bytes", os.path.getsize(args[0]))


def _count_rows(stat, args, _kwargs, _result):
    stat.add("rows", np.shape(args[1])[0] if np.ndim(args[1]) == 2 else 1)


def _count_result_bytes(stat, _args, _kwargs, result):
    stat.add("bytes", result.nbytes)


def install_probes(tracer: Tracer) -> None:
    """Wrap each layer's public functions at the binding its caller uses."""
    pipeline = data.EncodingPipeline
    probes = [
        # training
        (federation, "per_sample_grads", "nn.per_sample_grads", _count_samples),
        (federation, "privatize", "dp.privatize", _count_clipped),
        (federation, "adam_step", "nn.adam_step", None),
        (nn.DenoiserParams, "from_flat", "nn.from_flat", None),
        (federation, "make_training_example", "diffusion.make_training_example", None),
        (federation, "client_local_update", "federation.client_local_update",
         _count_local_steps),
        (federation, "fedavg_aggregate", "federation.aggregate", None),
        (federation, "server_opt_aggregate", "federation.aggregate", None),
        (federation, "calibrate_sigma", "dp.calibrate_sigma", None),
        (dp, "epsilon_after", "dp.epsilon_after", None),
        (experiment, "save_checkpoint", "experiment.save_checkpoint",
         _count_file_bytes),
        # sampling
        (experiment, "forward", "nn.forward", _count_rows),
        (diffusion, "p_sample_step", "diffusion.p_sample_step", None),
        (pipeline, "decode", "data.decode", None),
        (experiment, "write_csv", "data.write_csv", None),
        # scoring
        (metrics, "column_fidelity", "metrics.column_fidelity", None),
        (metrics, "row_fidelity", "metrics.row_fidelity", None),
        (metrics, "utility_score", "metrics.utility_score", None),
        (metrics, "singling_out_risk", "attacks.singling_out", None),
        (metrics, "linkability_risk", "attacks.linkability", None),
        (metrics, "inference_risk", "attacks.inference", None),
        (attacks, "gower_distances", "attacks.gower_distances",
         _count_result_bytes),
        # set-up
        (experiment, "load_csv", "data.load_csv", None),
        (pipeline, "fit", "data.pipeline_fit", None),
        (experiment, "partition_iid", "data.partition", None),
        (experiment, "partition_noniid", "data.partition", None),
        (pipeline, "encode_numeric", "data.encode", None),
        (pipeline, "category_indices", "data.encode", None),
    ]
    probes += [(dp.RdpAccountant, method, "dp.accountant", None)
               for method in ("account_step", "rdp_totals", "to_epsilon",
                              "projected_epsilon")]
    probes += [(type(model), "fit", f"classifiers.{name}.fit", None)
               for name, model in classifiers.builtin_classifiers()]
    tracer.patch(federation, "run_round", "federation.run_round", keep_spans=True)
    for owner, attr, name, on_return in probes:
        tracer.patch(owner, attr, name, on_return)


def layer_metrics(tracer: Tracer, n_traced: int, overhead_s: float) -> dict:
    """Per-layer values keyed by PER_LAYER name, per traced repeat."""
    stats = tracer.stats
    rounds = stats["federation.run_round"].spans
    grads = stats["nn.per_sample_grads"]
    clips = stats["dp.privatize"].counters
    local_steps = stats["federation.client_local_update"].counters.get("steps", 0)
    values = {
        "nn.samples": grads.counters.get("samples", 0) / n_traced,
        "dp.clip_fraction": clips.get("clipped", 0) / max(1, clips.get("grads", 0)),
        "federation.round_s.p50": statistics.median(rounds) if rounds else 0.0,
        "federation.round_s.tail": tail(rounds) if rounds else 0.0,
        "federation.round_s.count": len(rounds),
        # client_local_update skips the gradient when the Poisson batch is empty
        "federation.empty_batch_steps": (local_steps - grads.calls) / n_traced,
        "trace.overhead_s": overhead_s,
    }
    for name, _unit in PER_LAYER:
        if name in values:
            continue
        layer, stat = name.rsplit(".", 1)
        if stat in ("self_s", "total_s", "calls"):
            values[name] = getattr(stats[layer], stat) / n_traced
        else:
            values[name] = stats[layer].counters.get(stat, 0) / n_traced
    return values

