"""The benchmark's probe surface still fits the program.

perfbench wraps module bindings of the program (``federation.run_round``,
``client_local_update``, ``calibrate_sigma``, ``nn.DenoiserParams.from_flat``,
``experiment.save_checkpoint`` and more) and checks each stage's outputs. A
change to one of those bindings breaks the benchmark, not the program's own
tests, so these run perfbench's self-tests and one traced pass of every
workload in a subprocess, each against this tree's ``src/``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("desk_pipeline", "paper_width_train", "generate_score")


def _python(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)


@pytest.mark.slow
def test_benchmark_self_tests_pass():
    done = _python("-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]


@pytest.mark.slow
@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_fails_no_operation(workload):
    done = _python("perfbench/run.py", "--workload", workload, "--seed", "1",
                   "--seconds", "0", "--trace", "1")
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, (
        done.stdout.splitlines()[-2], done.stderr[-3000:])
