"""Tests of the benchmark itself.  From the root of the repo:

    python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys
import tempfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("wide", "tall", "cli-gates")
COUNTS = ("linalg.states_built", "perceptron.pairs_compared", "svd.weight_sweeps", "serialize.model_bytes")


def _run(*args):
    p = subprocess.run([sys.executable, RUN, *args], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert p.returncode == 0, p.stderr[-3000:]
    return p.stdout


def test_smoke_emits_exactly_the_declared_names():
    # One cycle of every workload, traced and not; run.py exits 1 when a
    # name is undeclared or missing or an output is wrong.
    _run("--smoke")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload, monkeypatch):
    # The second run measures longer: how many operations fit in the time
    # must not change attempted and failed, which count distinct operations.
    def traced(seconds):
        out = _run("--workload", workload, "--seed", "7", "--seconds", seconds, "--trace", "1")
        result = json.loads(out.strip().splitlines()[-1])
        counts = {name: result["metrics"][name]["value"] for name in COUNTS}
        return counts, result["attempted"], result["failed"]

    assert traced("0") == traced("40")

    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(os.path.dirname(RUN))
    import run

    assert run.peak_kib(workload, 7)[0] == run.peak_kib(workload, 7)[0]


def test_refuses_a_directory_without_the_package():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_run-") as empty:
        p = subprocess.run([sys.executable, RUN, "--workload", "wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=empty, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
