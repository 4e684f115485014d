"""Fedsynth benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload desk_pipeline --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload desk_pipeline --seed 1 --seconds 36 --trace 1

The workload's inputs are generated from ``--seed``. Set-up and the stages
repeat while another repeat fits in ``--seconds`` (at least twice), and
every repeat must pass the output checks. ``--trace 0`` reports the end-to-end
metrics as medians over the repeats. ``--trace 1`` alternates untraced and
traced repeats and reports the per-layer metrics of the traced ones, plus
the tracing overhead. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def pin_blas_threads() -> int:
    """Run BLAS on one thread; returns the CPUs this process may use.

    One thread is within nproc everywhere, and on a shared two-core machine
    it timed more steadily than a thread per core.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    """HEAD's commit read from ``.git`` without starting git; "unknown" if absent."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_line_count() -> int:
    package = os.path.join(SRC, "fedsynth")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def machine_facts(nproc: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {"nproc": nproc, "blas": blas_name,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "commit": git_commit(),
            "src_lines": src_line_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    nproc = pin_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "fedsynth", "__init__.py")):
        print(f"fedsynth sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, Run, StageFailed

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    facts = machine_facts(nproc)
    print("facts " + json.dumps(facts, sort_keys=True), flush=True)

    work_dir = os.path.join(ROOT, ".perfbench_work",
                            f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    run = Run(WORKLOADS[args.workload], args.seed, work_dir)
    try:
        metrics = run.measure(args.seconds, bool(args.trace))
    except StageFailed as exc:
        print(f"stage failed: {exc}", file=sys.stderr)
        metrics = {}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run still uses it

    for name, metric in metrics.items():
        print(f"{name:45s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"operations failed {run.failed} of {run.attempted} attempted")
    print(json.dumps({"correct": run.failed == 0 and bool(metrics),
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
