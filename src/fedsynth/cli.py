"""Command-line driver.

Subcommands mirror the run stages: prepare, train, generate, evaluate,
sweep, report. Exit codes: 0 success, 1 validation/config or usage error or
a file that cannot be read or written, 2 training divergence, 3
privacy-budget error. Config values come from a JSON file and
can be overridden with repeated ``--set dotted.key=value`` flags.
"""

from __future__ import annotations

import argparse
import sys

from .errors import DivergenceError, PrivacyBudgetError, ValidationError, reading
from .experiment import (DEFAULT_ATTACK_SEED, ExperimentConfig, cmd_evaluate,
                         cmd_generate, cmd_prepare, cmd_sweep, cmd_train,
                         format_report, format_sweep)
from .metrics import DEFAULT_N_ATTACKS, DEFAULT_TEST_FRACTION
from .store import read_json

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DIVERGENCE = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as subparsers' do: argparse's 2 means divergence here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--config", required=True,
                        help="path to the JSON experiment config")
    parser.add_argument("-s", "--set", action="append", default=[],
                        metavar="KEY=VALUE", dest="overrides",
                        help="override a config value (dotted path), repeatable")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fedsynth",
        description="Federated, differentially private tabular data synthesis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="fit encoding pipeline and partitions")
    _add_config_args(p)

    p = sub.add_parser("train", help="run federated training")
    _add_config_args(p)
    p.add_argument("--resume", action="store_true",
                   help="continue from the run's checkpoint")
    p.add_argument("--stop-after", type=int, default=None, metavar="ROUNDS",
                   help="stop this session once ROUNDS total rounds are done")

    p = sub.add_parser("generate", help="sample synthetic rows from a checkpoint")
    _add_config_args(p)
    p.add_argument("--checkpoint", default=None, help="checkpoint path override")
    p.add_argument("--rows", type="n_rows={}".format, action="append", dest="overrides",
                   metavar="N", help="row count: --set n_rows=N")
    p.add_argument("--seed", type="seeds.model={}".format, action="append",
                   dest="overrides", metavar="S", help="sampling seed: --set seeds.model=S")
    p.add_argument("--out", default=None, help="output CSV path override")

    p = sub.add_parser("evaluate", help="score synthetic data against real data")
    p.add_argument("--real", required=True, help="real CSV path")
    p.add_argument("--syn", required=True, help="synthetic CSV path")
    p.add_argument("--schema", required=True, help="schema JSON path")
    p.add_argument("--seed", type=int, default=DEFAULT_ATTACK_SEED,
                   help="attack/utility seed")
    p.add_argument("--n-attacks", type=int, default=DEFAULT_N_ATTACKS)
    p.add_argument("--test-fraction", type=float, default=DEFAULT_TEST_FRACTION)
    p.add_argument("--out", default=None, help="write the report JSON here")

    p = sub.add_parser("sweep", help="run the config's sweep axes")
    _add_config_args(p)

    p = sub.add_parser("report", help="pretty-print a report or sweep results")
    p.add_argument("path", help="report.json or sweep_results.json")

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "prepare":
        config = ExperimentConfig.from_file(args.config, args.overrides)
        summary = cmd_prepare(config)
        counts = ", ".join(f"client {k}: {v}" for k, v in
                           sorted(summary["counts"].items()))
        print(f"prepared {summary['n_rows']} rows ({summary['partition']}): {counts}")
    elif args.command == "train":
        config = ExperimentConfig.from_file(args.config, args.overrides)
        manifest = cmd_train(config, resume=args.resume,
                             stop_after_round=args.stop_after)
        eps = manifest["epsilons"]
        eps_note = "" if not eps else "  epsilon: " + ", ".join(
            f"client {k}: " + ("not trained" if v is None else f"{v:.4f}")
            for k, v in sorted(eps.items()))
        print(f"trained {manifest['rounds_completed']} rounds in "
              f"{manifest['wall_time_s']}s{eps_note}")
    elif args.command == "generate":
        config = ExperimentConfig.from_file(args.config, args.overrides)
        out = cmd_generate(config, checkpoint_path=args.checkpoint, out_path=args.out)
        print(f"wrote {out}")
    elif args.command == "evaluate":
        report = cmd_evaluate(args.real, args.syn, args.schema, seed=args.seed,
                              n_attacks=args.n_attacks,
                              test_fraction=args.test_fraction,
                              out_path=args.out)
        print(format_report(report.to_dict()))
    elif args.command == "sweep":
        config = ExperimentConfig.from_file(args.config, args.overrides)
        rows = cmd_sweep(config)
        print(format_sweep(rows))
    elif args.command == "report":
        with reading(f"report or sweep results {args.path!r}"):
            payload = read_json(args.path)
            text = (format_sweep(payload) if isinstance(payload, list)
                    else format_report(payload))
        print(text)
    return EXIT_OK


def main(argv: list | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PrivacyBudgetError as exc:
        print(f"privacy budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
